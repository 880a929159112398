// Unit and property tests for src/jobs: catalog, allocator, workload,
// job table.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "jobs/allocator.hpp"
#include "jobs/app_catalog.hpp"
#include "jobs/job_table.hpp"
#include "jobs/workload.hpp"
#include "platform/system_config.hpp"

namespace hpcfail::jobs {
namespace {

platform::Topology small_topology() {
  platform::TopologyConfig cfg;
  cfg.cabinet_cols = 2;
  return platform::Topology(cfg);  // 384 nodes
}

// -------------------------------------------------------------- catalog ----

TEST(AppCatalogTest, SamplingRespectsPopularity) {
  const AppCatalog catalog = AppCatalog::standard();
  util::Rng rng(1);
  std::map<std::string, int> counts;
  for (int i = 0; i < 20000; ++i) counts[catalog.sample(rng).name]++;
  // namd (popularity 10) must dominate devcode_x (popularity 1).
  EXPECT_GT(counts["namd"], counts["devcode_x"] * 4);
  EXPECT_GT(counts["devcode_x"], 0);
}

TEST(AppCatalogTest, GenomicsAppRisksOom) {
  const AppCatalog catalog = AppCatalog::standard();
  const auto apps = catalog.apps();
  const auto it = std::find_if(apps.begin(), apps.end(),
                               [](const AppProfile& a) { return a.name == "genomics_mem"; });
  ASSERT_NE(it, apps.end());
  EXPECT_GT(it->p_oom, 0.01);
}

TEST(AppCatalogTest, EmptyCatalogRejected) {
  EXPECT_THROW(AppCatalog(std::vector<AppProfile>{}), std::invalid_argument);
}

// ------------------------------------------------------------ allocator ----

TEST(AllocatorTest, NoDoubleBookingWithinWindow) {
  const auto topo = small_topology();
  NodeAllocator alloc(topo);
  util::Rng rng(2);
  const util::TimePoint t0 = util::make_time(2015, 1, 1);
  const util::TimePoint t1 = t0 + util::Duration::hours(1);

  std::set<std::uint32_t> used;
  for (int j = 0; j < 10; ++j) {
    const auto nodes = alloc.allocate(30, t0, t1, AllocPolicy::Scattered, rng);
    ASSERT_EQ(nodes.size(), 30u);
    for (const auto n : nodes) {
      EXPECT_TRUE(used.insert(n.value).second) << "node double-booked";
    }
  }
  // 384 - 300 = 84 left; a request for 100 must fail entirely.
  EXPECT_TRUE(alloc.allocate(100, t0, t1, AllocPolicy::Scattered, rng).empty());
  // But succeeds after the old jobs end.
  EXPECT_EQ(alloc.allocate(100, t1, t1 + util::Duration::hours(1), AllocPolicy::Scattered,
                           rng)
                .size(),
            100u);
}

TEST(AllocatorTest, BladePackedIsContiguous) {
  const auto topo = small_topology();
  NodeAllocator alloc(topo);
  util::Rng rng(3);
  const util::TimePoint t0 = util::make_time(2015, 1, 1);
  const auto nodes =
      alloc.allocate(16, t0, t0 + util::Duration::hours(1), AllocPolicy::BladePacked, rng);
  ASSERT_EQ(nodes.size(), 16u);
  std::set<std::uint32_t> blades;
  for (const auto n : nodes) blades.insert(topo.blade_of(n).value);
  // 16 nodes over 4-node blades: exactly 4 whole blades.
  EXPECT_EQ(blades.size(), 4u);
}

TEST(AllocatorTest, ImpossibleRequests) {
  const auto topo = small_topology();
  NodeAllocator alloc(topo);
  util::Rng rng(5);
  const util::TimePoint t0 = util::make_time(2015, 1, 1);
  EXPECT_TRUE(alloc.allocate(0, t0, t0, AllocPolicy::Scattered, rng).empty());
  EXPECT_TRUE(
      alloc.allocate(topo.node_count() + 1, t0, t0, AllocPolicy::Scattered, rng).empty());
}

/// NodeAllocator::allocate as it was before its walks became add-and-wrap:
/// a 32-bit `(offset + step * stride) % n` per scattered probe and a
/// nodes_on_blade vector per blade.  Kept verbatim as the oracle of
/// WalkMatchesModuloReference.
class ModuloAllocator {
 public:
  explicit ModuloAllocator(const platform::Topology& topo)
      : topo_(topo), free_at_(topo.node_count(), util::TimePoint{0}) {}

  std::vector<platform::NodeId> allocate(std::uint32_t count, util::TimePoint start,
                                         util::TimePoint end, AllocPolicy policy,
                                         util::Rng& rng) {
    std::vector<platform::NodeId> picked;
    if (count == 0 || count > topo_.node_count()) return picked;
    picked.reserve(count);
    auto is_free = [this, start](std::uint32_t node) { return free_at_[node] <= start; };
    if (policy == AllocPolicy::BladePacked) {
      const std::uint32_t blades = topo_.blade_count();
      const auto offset = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(blades) - 1));
      for (std::uint32_t step = 0; step < blades && picked.size() < count; ++step) {
        const platform::BladeId blade{(offset + step) % blades};
        for (const auto node : topo_.nodes_on_blade(blade)) {
          if (picked.size() >= count) break;
          if (is_free(node.value)) picked.push_back(node);
        }
      }
    } else {
      const std::uint32_t n = topo_.node_count();
      const auto offset =
          static_cast<std::uint32_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      auto stride = static_cast<std::uint32_t>(rng.uniform_int(1, 257));
      while (std::gcd(stride, n) != 1) ++stride;
      for (std::uint32_t step = 0; step < n && picked.size() < count; ++step) {
        const std::uint32_t node = (offset + step * stride) % n;
        if (is_free(node)) picked.push_back(platform::NodeId{node});
      }
    }
    if (picked.size() < count) return {};
    for (const auto node : picked) free_at_[node.value] = end;
    return picked;
  }

 private:
  const platform::Topology& topo_;
  std::vector<util::TimePoint> free_at_;
};

/// Seeded random call sequences (both policies, non-monotonic starts,
/// requests from 0 to n + 1 nodes) must give the same picks
/// and leave the caller's RNG at the same next draw.  Only machines where
/// the oracle's `offset + step * stride` fits in 32 bits qualify: above
/// ~16.6M nodes it wraps and can probe a node twice, which add-and-wrap
/// never does.
TEST(AllocatorTest, WalkMatchesModuloReference) {
  for (const int per_blade : {4, 3}) {
    for (const std::uint32_t n : {1u, 2u, 3u, 191u, 257u, 258u, 520u, 6400u}) {
      platform::TopologyConfig cfg;
      cfg.nodes_per_slot = per_blade;
      const std::uint32_t per_cabinet = 3 * 16 * static_cast<std::uint32_t>(per_blade);
      cfg.cabinet_cols = static_cast<int>((n + per_cabinet - 1) / per_cabinet);
      cfg.max_nodes = n;
      const platform::Topology topo(cfg);
      ASSERT_EQ(topo.node_count(), n);
      ASSERT_LT(std::uint64_t{n} * 300, std::uint64_t{1} << 32);  // oracle does not wrap
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " per_blade=" << per_blade
                                          << " seed=" << seed);
        NodeAllocator fast(topo);
        ModuloAllocator oracle(topo);
        util::Rng fast_rng(seed);
        util::Rng oracle_rng(seed);
        util::Rng script(seed * 7919 + n);
        const util::TimePoint base = util::make_time(2015, 1, 1);
        const auto max_small = std::max<std::int64_t>(1, n / 6);
        for (int call = 0; call < 300; ++call) {
          const util::TimePoint start =
              base + util::Duration::minutes(script.uniform_int(-600, 6000));
          const auto count = static_cast<std::uint32_t>(
              script.bernoulli(0.2) ? script.uniform_int(0, std::int64_t{n} + 1)
                                    : script.uniform_int(1, max_small));
          const util::TimePoint end =
              start + util::Duration::minutes(script.uniform_int(1, 3000));
          const AllocPolicy policy =
              script.bernoulli(0.5) ? AllocPolicy::BladePacked : AllocPolicy::Scattered;
          const auto got = fast.allocate(count, start, end, policy, fast_rng);
          const auto want = oracle.allocate(count, start, end, policy, oracle_rng);
          ASSERT_EQ(got, want) << "call " << call << ": " << count << " nodes";
          ASSERT_EQ(fast_rng.next_u64(), oracle_rng.next_u64()) << "call " << call;
        }
      }
    }
  }
}

// ------------------------------------------------------------- workload ----

TEST(WorkloadTest, DeterministicAndOrdered) {
  const auto topo = small_topology();
  WorkloadConfig cfg;
  cfg.arrivals_per_hour = 30;
  const util::TimePoint begin = util::make_time(2015, 3, 2);
  const util::TimePoint end = begin + util::Duration::days(2);

  WorkloadGenerator g1(topo, AppCatalog::standard(), cfg, util::Rng(77));
  WorkloadGenerator g2(topo, AppCatalog::standard(), cfg, util::Rng(77));
  const auto jobs1 = g1.generate(begin, end);
  const auto jobs2 = g2.generate(begin, end);
  ASSERT_EQ(jobs1.size(), jobs2.size());
  ASSERT_GT(jobs1.size(), 100u);
  for (std::size_t i = 0; i < jobs1.size(); ++i) {
    EXPECT_EQ(jobs1[i].job_id, jobs2[i].job_id);
    EXPECT_EQ(jobs1[i].start.usec, jobs2[i].start.usec);
    EXPECT_EQ(jobs1[i].nodes.size(), jobs2[i].nodes.size());
    if (i > 0) {
      EXPECT_GE(jobs1[i].start.usec, jobs1[i - 1].start.usec);
    }
  }
}

TEST(WorkloadTest, JobsWithinWindowAndValid) {
  const auto topo = small_topology();
  WorkloadGenerator gen(topo, AppCatalog::standard(), WorkloadConfig{}, util::Rng(78));
  const util::TimePoint begin = util::make_time(2015, 3, 2);
  const util::TimePoint end = begin + util::Duration::days(1);
  for (const auto& job : gen.generate(begin, end)) {
    EXPECT_GE(job.start.usec, begin.usec);
    EXPECT_LT(job.start.usec, end.usec);
    EXPECT_GT(job.end.usec, job.start.usec);
    EXPECT_FALSE(job.nodes.empty());
    EXPECT_GT(job.mem_per_node_gb, 0.0);
    for (const auto n : job.nodes) EXPECT_LT(n.value, topo.node_count());
  }
}

TEST(WorkloadTest, NoNodeOverlapAmongConcurrentJobs) {
  const auto topo = small_topology();
  WorkloadGenerator gen(topo, AppCatalog::standard(), WorkloadConfig{}, util::Rng(79));
  const util::TimePoint begin = util::make_time(2015, 3, 2);
  const auto jobs = gen.generate(begin, begin + util::Duration::days(1));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < jobs.size(); ++j) {
      const bool overlap_time =
          jobs[i].start < jobs[j].end && jobs[j].start < jobs[i].end;
      if (!overlap_time) continue;
      std::set<std::uint32_t> a;
      for (const auto n : jobs[i].nodes) a.insert(n.value);
      for (const auto n : jobs[j].nodes) {
        EXPECT_FALSE(a.contains(n.value))
            << "jobs " << jobs[i].job_id << " and " << jobs[j].job_id << " share a node";
      }
    }
  }
}

TEST(JobOutcomeTest, ExitCodes) {
  EXPECT_EQ(exit_code_for(JobOutcome::Completed), 0);
  EXPECT_EQ(exit_code_for(JobOutcome::UserCancelled), 130);
  EXPECT_EQ(exit_code_for(JobOutcome::OomKilled), 137);
  EXPECT_EQ(exit_code_for(JobOutcome::NodeFailure), 143);
  EXPECT_NE(to_string(JobOutcome::ConfigError), "?");
}

// ------------------------------------------------------------ job table ----

TEST(JobTableTest, FromJobsAndQueries) {
  Job job;
  job.job_id = 42;
  job.app_name = "namd";
  job.start = util::make_time(2015, 3, 2, 10);
  job.end = util::make_time(2015, 3, 2, 12);
  job.nodes = {platform::NodeId{1}, platform::NodeId{2}};
  job.outcome = JobOutcome::Completed;
  const JobTable table = JobTable::from_jobs({job});

  ASSERT_NE(table.find(42), nullptr);
  EXPECT_EQ(table.text(table.find(42)->app), "namd");
  EXPECT_EQ(table.find(43), nullptr);

  const auto* on_node =
      table.job_on_node_at(platform::NodeId{1}, util::make_time(2015, 3, 2, 11));
  ASSERT_NE(on_node, nullptr);
  EXPECT_EQ(on_node->job_id, 42);
  EXPECT_EQ(table.job_on_node_at(platform::NodeId{3}, util::make_time(2015, 3, 2, 11)),
            nullptr);
  // Outside the window, but within slack.
  EXPECT_EQ(table.job_on_node_at(platform::NodeId{1}, util::make_time(2015, 3, 2, 12, 1)),
            nullptr);
  EXPECT_NE(table.job_on_node_at(platform::NodeId{1}, util::make_time(2015, 3, 2, 12, 1),
                                 util::Duration::minutes(5)),
            nullptr);
}

TEST(JobTableTest, IncrementalConstruction) {
  std::vector<JobUpdate> updates(5);
  updates[0].kind = JobUpdate::Kind::Cancel;  // before its start: ignored
  updates[0].row.job_id = 7;
  JobRow& row = updates[1].row;
  updates[1].kind = JobUpdate::Kind::Start;
  row.job_id = 7;
  row.start = util::make_time(2015, 1, 1);
  row.end = row.start + util::Duration::days(9999);
  updates[1].nodes = {platform::NodeId{5}};
  updates[2].kind = JobUpdate::Kind::End;
  updates[2].row.job_id = 7;
  updates[2].row.end = util::make_time(2015, 1, 1, 2);
  updates[2].row.exit_code = 137;
  updates[2].reason = "OomKilled";
  updates[3].kind = JobUpdate::Kind::Overallocate;
  updates[3].row.job_id = 7;
  updates[3].row.overallocated_nodes = 3;
  updates[4].kind = JobUpdate::Kind::Cancel;
  updates[4].row.job_id = 8;  // unknown id: ignored
  const JobTable table(std::move(updates));

  const auto* job = table.find(7);
  ASSERT_NE(job, nullptr);
  EXPECT_TRUE(job->ended);
  EXPECT_EQ(job->exit_code, 137);
  EXPECT_EQ(table.text(job->reason), "OomKilled");
  EXPECT_TRUE(job->overallocated);
  EXPECT_EQ(job->overallocated_nodes, 3u);
  EXPECT_FALSE(job->cancelled);
  EXPECT_EQ(table.find(8), nullptr);
  EXPECT_EQ(table.job_on_node_at(platform::NodeId{5}, util::make_time(2015, 1, 1, 1)), job);
}

TEST(JobTableTest, AddStartReplacesDuplicate) {
  std::vector<JobUpdate> updates(2);  // two starts
  updates[0].row.job_id = 1;
  updates[0].app = "first";
  updates[0].nodes = {platform::NodeId{1}, platform::NodeId{2}};
  updates[1].row.job_id = 1;
  updates[1].app = "second";
  updates[1].nodes = {platform::NodeId{3}};
  const JobTable table(std::move(updates));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.text(table.find(1)->app), "second");
  ASSERT_EQ(table.nodes(*table.find(1)).size(), 1u);
  EXPECT_EQ(table.nodes(*table.find(1))[0], platform::NodeId{3});
}

}  // namespace
}  // namespace hpcfail::jobs
