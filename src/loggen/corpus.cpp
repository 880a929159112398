#include "loggen/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "loggen/renderer.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace hpcfail::loggen {

using logmodel::LogSource;

namespace {

constexpr std::array<std::string_view, logmodel::kLogSourceCount> kFileNames = {
    "p0-console.log", "p0-messages.log", "p0-consumer.log",
    "controller.log", "erd.log",         "scheduler.log"};

}  // namespace

std::string_view source_file_name(logmodel::LogSource source) noexcept {
  return kFileNames[static_cast<std::size_t>(source)];
}

std::size_t Corpus::bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& t : text) total += t.size();
  return total;
}

namespace {

/// Routine daemon noise the classifiers must skip; none of these payloads
/// match any fault signature.
constexpr std::array<std::string_view, 8> kConsoleChatter = {
    "usb 1-1: new high-speed USB device",
    "eth0: link becomes ready",
    "audit: backlog limit exceeded adjustment",
    "perf: interrupt took too long, lowering rate",
    "device-mapper: uevent: version 1.0.3",
    "random: crng init done",
    "igb 0000:01:00.0: changing MTU",
    "NFS: state manager reclaiming locks",
};

constexpr std::array<std::string_view, 6> kMessagesChatter = {
    "systemd[1]: Started Session 2114 of user ops.",
    "crond[3321]: (root) CMD (run-parts /etc/cron.hourly)",
    "sshd[881]: Accepted publickey for ops from 10.1.0.4",
    "dbus[640]: [system] Successfully activated service",
    "ntpd[512]: kernel time sync status change 2001",
    "rsyslogd: action resumed (module builtin:omfile)",
};

/// One line to emit: sorting by (time, emission order) is the stable sort
/// by time, without moving any text.
struct LineKey {
  std::int64_t time;
  std::uint64_t seq;
  auto operator<=>(const LineKey&) const = default;
};
static_assert(sizeof(LineKey) == 16);

struct Chatter {
  util::TimePoint time;
  platform::NodeId node;
  bool console;
  std::uint8_t text;  ///< index into kConsoleChatter / kMessagesChatter
};

}  // namespace

Corpus build_corpus(const faultsim::SimulationResult& sim) {
  Corpus corpus;
  corpus.system = sim.config.system;
  corpus.begin = sim.config.begin;
  corpus.days = sim.config.days;

  const bool has_external = corpus.system.name != platform::SystemName::S5;
  const bool cray = sim.topology.config().naming == platform::NamingScheme::CrayCname;
  LogRenderer renderer(sim.topology, corpus.system.scheduler, sim.symbols);

  // Every non-scheduler record plus the routine chatter, keyed by time and
  // emission order (records first, then chatter).
  std::vector<Chatter> chatter;
  const double chatter_rate = sim.config.benign.routine_chatter_lines_per_day;
  if (chatter_rate > 0.0 && sim.topology.node_count() > 0) {
    util::Rng rng(sim.config.seed ^ 0xc4a77e5ULL);
    const auto total = static_cast<std::size_t>(
        chatter_rate * static_cast<double>(std::max(1, sim.config.days)));
    chatter.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      Chatter c{};
      c.time = sim.config.begin + util::Duration::seconds(rng.uniform_int(
                                      0, static_cast<std::int64_t>(sim.config.days) * 86400 - 1));
      c.node = platform::NodeId{static_cast<std::uint32_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sim.topology.node_count()) - 1))};
      c.console = rng.bernoulli(0.7);
      c.text = static_cast<std::uint8_t>(rng.uniform_int(0, c.console ? 7 : 5));
      chatter.push_back(c);
    }
  }
  corpus.chatter_lines = chatter.size();

  const std::size_t n_records = sim.records.size();
  std::vector<LineKey> keys;
  keys.reserve(n_records + chatter.size());
  for (std::size_t i = 0; i < n_records; ++i) {
    const auto& r = sim.records[i];
    if (r.source == LogSource::Scheduler) continue;  // jobs render below
    if (!has_external && (r.source == LogSource::Controller || r.source == LogSource::Erd)) {
      continue;  // S5 has no external log universe
    }
    keys.push_back({r.time.usec, i});
  }
  for (std::size_t i = 0; i < chatter.size(); ++i) {
    keys.push_back({chatter[i].time.usec, n_records + i});
  }
  std::sort(keys.begin(), keys.end());

  for (const auto& key : keys) {
    if (key.seq < n_records) {
      const auto& r = sim.records[key.seq];
      std::string& out = corpus.of(r.source);
      renderer.append(out, r);
      out += '\n';
      continue;
    }
    // Routine chatter: raw daemon lines matching no fault signature.
    const Chatter& c = chatter[key.seq - n_records];
    std::string& out = corpus.of(c.console ? LogSource::Console : LogSource::Messages);
    if (c.console) {
      util::append_iso(out, c.time);
      out += ' ';
      sim.topology.append_node_name(out, c.node);
      if (cray) {
        out += ' ';
        sim.topology.cname_of(c.node).append_to(out);
      }
      out += " kernel: ";
      out += kConsoleChatter[c.text];
    } else {
      util::append_syslog(out, c.time);
      out += ' ';
      sim.topology.append_node_name(out, c.node);
      out += " daemon[1]: ";
      out += kMessagesChatter[c.text];
    }
    out += '\n';
  }

  // Scheduler file from the jobs table, sorted by event time (Torque
  // timestamps do not sort lexically); seq = job index * 8 + line kind.
  using JobLine = LogRenderer::JobLine;
  keys.clear();
  for (std::size_t j = 0; j < sim.jobs.size(); ++j) {
    for (std::uint8_t k = 0; k < LogRenderer::kJobLineKinds; ++k) {
      if (const auto t = LogRenderer::job_line_time(sim.jobs[j], JobLine{k})) {
        keys.push_back({t->usec, j * 8 + k});
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  auto& sched = corpus.of(LogSource::Scheduler);
  for (const auto& key : keys) {
    renderer.append_job_line(sched, sim.jobs[key.seq / 8],
                             JobLine{static_cast<std::uint8_t>(key.seq % 8)});
    sched += '\n';
  }
  return corpus;
}

std::string manifest_to_string(const Corpus& corpus) {
  const auto& sys = corpus.system;
  const auto& topo = sys.topology;
  std::ostringstream out;
  out << "label=" << sys.label << '\n'
      << "machine_type=" << sys.machine_type << '\n'
      << "system=" << static_cast<int>(sys.name) << '\n'
      << "scheduler=" << (sys.scheduler == platform::SchedulerKind::Slurm ? "slurm" : "torque")
      << '\n'
      << "naming=" << (topo.naming == platform::NamingScheme::CrayCname ? "cray" : "hostname")
      << '\n'
      << "cabinet_cols=" << topo.cabinet_cols << '\n'
      << "cabinet_rows=" << topo.cabinet_rows << '\n'
      << "chassis_per_cabinet=" << topo.chassis_per_cabinet << '\n'
      << "slots_per_chassis=" << topo.slots_per_chassis << '\n'
      << "nodes_per_slot=" << topo.nodes_per_slot << '\n'
      << "max_nodes=" << topo.max_nodes << '\n'
      << "begin=" << util::format_iso(corpus.begin) << '\n'
      << "days=" << corpus.days << '\n';
  return out.str();
}

Corpus corpus_from_manifest(const std::string& manifest) {
  Corpus corpus;
  platform::TopologyConfig topo;
  int system_index = 0;
  for (const auto line : util::split(manifest, '\n')) {
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error("corpus manifest: malformed line");
    }
    const auto key = trimmed.substr(0, eq);
    const auto value = trimmed.substr(eq + 1);
    auto as_int = [&value, &key]() {
      const auto v = util::parse_i64(value);
      if (!v) throw std::runtime_error("corpus manifest: bad integer for " + std::string(key));
      return static_cast<int>(*v);
    };
    if (key == "label") {
      corpus.system.label = value;
    } else if (key == "machine_type") {
      corpus.system.machine_type = value;
    } else if (key == "system") {
      system_index = as_int();
    } else if (key == "scheduler") {
      corpus.system.scheduler = value == "slurm" ? platform::SchedulerKind::Slurm
                                                 : platform::SchedulerKind::Torque;
    } else if (key == "naming") {
      topo.naming = value == "cray" ? platform::NamingScheme::CrayCname
                                    : platform::NamingScheme::Hostname;
    } else if (key == "cabinet_cols") {
      topo.cabinet_cols = as_int();
    } else if (key == "cabinet_rows") {
      topo.cabinet_rows = as_int();
    } else if (key == "chassis_per_cabinet") {
      topo.chassis_per_cabinet = as_int();
    } else if (key == "slots_per_chassis") {
      topo.slots_per_chassis = as_int();
    } else if (key == "nodes_per_slot") {
      topo.nodes_per_slot = as_int();
    } else if (key == "max_nodes") {
      topo.max_nodes = static_cast<std::uint32_t>(as_int());
    } else if (key == "begin") {
      const auto t = util::parse_iso(value);
      if (!t) throw std::runtime_error("corpus manifest: bad begin timestamp");
      corpus.begin = *t;
    } else if (key == "days") {
      corpus.days = as_int();
    }
    // Unknown keys are ignored for forward compatibility.
  }
  corpus.system.name = static_cast<platform::SystemName>(system_index);
  corpus.system.topology = topo;
  corpus.system.nodes = platform::Topology{topo}.node_count();
  return corpus;
}

void write_corpus(const Corpus& corpus, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  {
    std::ofstream manifest(fs::path(dir) / "manifest.txt");
    if (!manifest) throw std::runtime_error("write_corpus: cannot open manifest");
    manifest << manifest_to_string(corpus);
    manifest.flush();
    if (!manifest) throw std::runtime_error("write_corpus: short write to manifest.txt");
  }
  for (std::size_t i = 0; i < kFileNames.size(); ++i) {
    if (corpus.text[i].empty()) continue;
    std::ofstream file(fs::path(dir) / kFileNames[i], std::ios::binary);
    if (!file) throw std::runtime_error("write_corpus: cannot open log file");
    file << corpus.text[i];
    if (HPCFAIL_FAULT_SITE("loggen.write.badbit")) file.setstate(std::ios::badbit);
    file.flush();
    // An unchecked stream here turns a full disk into a silently truncated
    // corpus; fail loud with the file that broke.
    if (!file) {
      throw std::runtime_error("write_corpus: short write to " +
                               std::string(kFileNames[i]));
    }
  }
}

Corpus read_corpus_header(const std::string& dir) {
  namespace fs = std::filesystem;
  std::ifstream manifest(fs::path(dir) / "manifest.txt");
  if (!manifest) throw std::runtime_error("read_corpus: missing manifest.txt in " + dir);
  std::ostringstream buf;
  buf << manifest.rdbuf();
  return corpus_from_manifest(buf.str());
}

Corpus read_corpus(const std::string& dir) {
  namespace fs = std::filesystem;
  Corpus corpus = read_corpus_header(dir);
  for (std::size_t i = 0; i < kFileNames.size(); ++i) {
    std::ifstream file(fs::path(dir) / kFileNames[i], std::ios::binary);
    if (!file) continue;  // absent source (e.g. no ERD on S5)
    std::ostringstream text;
    text << file.rdbuf();
    corpus.text[i] = text.str();
  }
  return corpus;
}

}  // namespace hpcfail::loggen
