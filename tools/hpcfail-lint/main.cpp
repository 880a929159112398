// CLI driver for hpcfail-lint.  Exit codes: 0 clean, 1 diagnostics emitted,
// 2 usage error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "cxx_model.hpp"
#include "lint.hpp"
#include "sarif.hpp"

namespace {

void usage(std::FILE* to) {
  std::fputs(
      "usage: hpcfail-lint [--repo-root DIR] [--check NAME]... [--list-checks]\n"
      "                    [--sarif-out FILE] [--stats]\n"
      "\n"
      "Statically cross-checks the emitter templates, parser tables and\n"
      "FORMATS.md schemas of an hpcfail tree, plus repo invariants and\n"
      "token-level lifetime/concurrency checks (capture-lifetime,\n"
      "dangling-view, raw-sync).  Prints gcc-style file:line diagnostics\n"
      "and exits non-zero when the tree has drifted.\n"
      "\n"
      "  --sarif-out FILE       also write the report as SARIF 2.1.0 for\n"
      "                         code-scanning upload.\n"
      "  --stats                print files/bytes loaded and wall time to\n"
      "                         stderr (the shared SourceTree cache means the\n"
      "                         tree is read once regardless of check count).\n",
      to);
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path root = ".";
  std::vector<std::string> checks;
  std::filesystem::path sarif_path;
  bool stats = false;

  const auto need_value = [&](int i, const char* flag) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "hpcfail-lint: %s needs a value\n", flag);
      return false;
    }
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--list-checks") {
      for (const auto& name : hpcfail::lint::all_check_names()) {
        std::printf("%s\n", name.c_str());
      }
      return 0;
    }
    if (arg == "--repo-root") {
      if (!need_value(i, "--repo-root")) return 2;
      root = argv[++i];
      continue;
    }
    if (arg == "--check") {
      if (!need_value(i, "--check")) return 2;
      checks.emplace_back(argv[++i]);
      continue;
    }
    if (arg == "--sarif-out") {
      if (!need_value(i, "--sarif-out")) return 2;
      sarif_path = argv[++i];
      continue;
    }
    if (arg == "--stats") {
      stats = true;
      continue;
    }
    std::fprintf(stderr, "hpcfail-lint: unknown argument '%s'\n", argv[i]);
    usage(stderr);
    return 2;
  }

  if (!std::filesystem::exists(root)) {
    std::fprintf(stderr, "hpcfail-lint: repo root '%s' does not exist\n",
                 root.string().c_str());
    return 2;
  }

  // A mistyped --check is a usage error (exit 2), not a lint finding: a CI
  // job must not be able to "fail with findings" on a flag typo.
  const auto known = hpcfail::lint::all_check_names();
  for (const auto& name : checks) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "hpcfail-lint: unknown check '%s' (see --list-checks)\n",
                   name.c_str());
      return 2;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  hpcfail::lint::SourceTree tree(root);
  const hpcfail::lint::Report report = hpcfail::lint::run_checks(tree, checks);
  const auto wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (stats) {
    std::fprintf(stderr,
                 "hpcfail-lint: stats: %zu files / %zu bytes loaded once, "
                 "%lld ms wall\n",
                 tree.files_loaded(), tree.bytes_loaded(),
                 static_cast<long long>(wall_ms));
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "hpcfail-lint: cannot write SARIF to '%s'\n",
                   sarif_path.string().c_str());
      return 2;
    }
    out << hpcfail::lint::to_sarif(report);
  }

  for (const auto& d : report.diagnostics) {
    std::printf("%s\n", d.to_string().c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr, "hpcfail-lint: %zu finding(s)\n", report.diagnostics.size());
    return 1;
  }
  std::fprintf(stderr, "hpcfail-lint: clean\n");
  return 0;
}
