#include "pmu/pmu.h"

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "sim/machine.h"
#include "workloads/harness.h"
#include "workloads/streamcluster.h"
#include "workloads/sweep3d.h"

namespace dcprof::pmu {
namespace {

sim::MachineConfig two_cores() {
  sim::MachineConfig cfg;
  cfg.sockets = 1;
  cfg.cores_per_socket = 2;
  return cfg;
}

sim::MemAccess access_at(sim::CoreId core, sim::MemLevel level,
                         sim::Addr ip = 0x400000, sim::Addr addr = 0x1000) {
  sim::MemAccess a;
  a.core = core;
  a.ip = ip;
  a.addr = addr;
  a.size = 8;
  a.result.level = level;
  a.result.latency = 123;
  return a;
}

TEST(Pmu, IbsSamplesEveryNthOp) {
  PmuSet pmu(two_cores(), {PmuConfig{EventKind::kIbsOp, 10, 0, 0}});
  std::vector<Sample> samples;
  pmu.set_handler([&](const Sample& s) { samples.push_back(s); });
  for (int i = 0; i < 35; ++i) pmu.on_access(access_at(0, sim::MemLevel::kL1));
  EXPECT_EQ(samples.size(), 3u);
  EXPECT_EQ(pmu.events_counted(0), 35u);
}

TEST(Pmu, MarkedEventCountsOnlyMatchingAccesses) {
  PmuSet pmu(two_cores(),
             {PmuConfig{EventKind::kMarkedDataFromRMem, 2, 0, 0}});
  std::vector<Sample> samples;
  pmu.set_handler([&](const Sample& s) { samples.push_back(s); });
  for (int i = 0; i < 10; ++i) pmu.on_access(access_at(0, sim::MemLevel::kL1));
  EXPECT_TRUE(samples.empty());
  pmu.on_access(access_at(0, sim::MemLevel::kRemoteDram));
  pmu.on_access(access_at(0, sim::MemLevel::kRemoteDram));
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].source, sim::MemLevel::kRemoteDram);
  EXPECT_EQ(samples[0].event, EventKind::kMarkedDataFromRMem);
  EXPECT_EQ(pmu.events_counted(0), 2u);
}

TEST(Pmu, SampleCarriesPreciseIpAndEffectiveAddress) {
  PmuSet pmu(two_cores(), {PmuConfig{EventKind::kIbsOp, 1, 3, 0}});
  Sample sample;
  pmu.set_handler([&](const Sample& s) { sample = s; });
  pmu.on_access(access_at(1, sim::MemLevel::kL3, 0x999, 0x7000));
  EXPECT_EQ(sample.precise_ip, 0x999u);
  EXPECT_EQ(sample.signal_ip, 0x999u + 12);  // 3 instructions of skid
  EXPECT_EQ(sample.eaddr, 0x7000u);
  EXPECT_EQ(sample.latency, 123u);
  EXPECT_TRUE(sample.is_memory);
  EXPECT_EQ(sample.core, 1);
}

TEST(Pmu, PerCoreCountdownsAreIndependent) {
  PmuSet pmu(two_cores(), {PmuConfig{EventKind::kIbsOp, 4, 0, 0}});
  std::vector<Sample> samples;
  pmu.set_handler([&](const Sample& s) { samples.push_back(s); });
  for (int i = 0; i < 3; ++i) pmu.on_access(access_at(0, sim::MemLevel::kL1));
  for (int i = 0; i < 3; ++i) pmu.on_access(access_at(1, sim::MemLevel::kL1));
  EXPECT_TRUE(samples.empty());
  pmu.on_access(access_at(0, sim::MemLevel::kL1));
  EXPECT_EQ(samples.size(), 1u);
  pmu.on_access(access_at(1, sim::MemLevel::kL1));
  EXPECT_EQ(samples.size(), 2u);
}

TEST(Pmu, ComputeBlocksCanSpanMultiplePeriods) {
  PmuSet pmu(two_cores(), {PmuConfig{EventKind::kIbsOp, 100, 0, 0}});
  std::vector<Sample> samples;
  pmu.set_handler([&](const Sample& s) { samples.push_back(s); });
  pmu.on_compute(0, 0, 350, 0x400000, 0);
  EXPECT_EQ(samples.size(), 3u);
  for (const auto& s : samples) {
    EXPECT_FALSE(s.is_memory);
    EXPECT_EQ(s.precise_ip, 0x400000u);
  }
  // 50 ops remain: 50 more trigger the next sample.
  pmu.on_compute(0, 0, 50, 0x400000, 0);
  EXPECT_EQ(samples.size(), 4u);
}

TEST(Pmu, MarkedEventsIgnoreComputeOps) {
  PmuSet pmu(two_cores(),
             {PmuConfig{EventKind::kMarkedDataFromRMem, 1, 0, 0}});
  std::vector<Sample> samples;
  pmu.set_handler([&](const Sample& s) { samples.push_back(s); });
  pmu.on_compute(0, 0, 1000, 0x400000, 0);
  EXPECT_TRUE(samples.empty());
}

TEST(Pmu, JitterKeepsPeriodsInBand) {
  PmuSet pmu(two_cores(), {PmuConfig{EventKind::kIbsOp, 100, 0, 20}});
  std::vector<std::uint64_t> gaps;
  std::uint64_t count = 0;
  std::uint64_t last = 0;
  pmu.set_handler([&](const Sample&) {
    if (last != 0) gaps.push_back(count - last);
    last = count;
  });
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ++count;
    pmu.on_access(access_at(0, sim::MemLevel::kL1));
  }
  ASSERT_GT(gaps.size(), 10u);
  bool varied = false;
  for (const auto g : gaps) {
    EXPECT_GE(g, 80u);
    EXPECT_LE(g, 120u);
    if (g != gaps.front()) varied = true;
  }
  EXPECT_TRUE(varied) << "jitter should randomize the period";
}

TEST(Pmu, MultipleEventConfigsCountIndependently) {
  PmuSet pmu(two_cores(),
             {PmuConfig{EventKind::kIbsOp, 1000, 0, 0},
              PmuConfig{EventKind::kMarkedTlbMiss, 1, 0, 0}});
  std::vector<Sample> samples;
  pmu.set_handler([&](const Sample& s) { samples.push_back(s); });
  sim::MemAccess a = access_at(0, sim::MemLevel::kL2);
  a.result.tlb_miss = true;
  pmu.on_access(a);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].event, EventKind::kMarkedTlbMiss);
  EXPECT_EQ(pmu.events_counted(0), 1u);  // IBS counted the op too
  EXPECT_EQ(pmu.events_counted(1), 1u);
}

TEST(Pmu, RejectsInvalidConfigs) {
  EXPECT_THROW(PmuSet(two_cores(), {PmuConfig{EventKind::kIbsOp, 0, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(
      PmuSet(two_cores(), {PmuConfig{EventKind::kIbsOp, 10, 0, 10}}),
      std::invalid_argument);
}

TEST(Pmu, EventNamesAreStable) {
  EXPECT_STREQ(to_string(EventKind::kMarkedDataFromRMem),
               "PM_MRK_DATA_FROM_RMEM");
  EXPECT_STREQ(to_string(EventKind::kIbsOp), "IBS_OP");
}

// Property: over many accesses, the sample count is within 25% of
// ops/period for any period, jittered or not.
class PmuRate : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PmuRate, SampleRateTracksPeriod) {
  const auto [period, jitter] = GetParam();
  PmuSet pmu(two_cores(),
             {PmuConfig{EventKind::kIbsOp, static_cast<std::uint64_t>(period),
                        0, static_cast<std::uint64_t>(jitter)}});
  std::uint64_t samples = 0;
  pmu.set_handler([&](const Sample&) { ++samples; });
  const std::uint64_t ops = 200'000;
  for (std::uint64_t i = 0; i < ops; ++i) {
    pmu.on_access(access_at(0, sim::MemLevel::kL1));
  }
  const double expected = static_cast<double>(ops) / period;
  EXPECT_NEAR(static_cast<double>(samples), expected, 0.25 * expected);
}

INSTANTIATE_TEST_SUITE_P(
    Periods, PmuRate,
    ::testing::Values(std::pair{64, 0}, std::pair{64, 8},
                      std::pair{1024, 0}, std::pair{1024, 128},
                      std::pair{4096, 512}));

// --- Quiet-op skip-ahead -------------------------------------------------
//
// Attached to a Machine, a PmuSet sees only the ops that can take a
// sample; the rest arrive in bulk. Fed the same stream op by op, a second
// PmuSet is the reference: samples, counts and registry series must match.

struct QuietCase {
  std::string name;
  std::vector<PmuConfig> cfgs;
  bool throttle = false;  ///< set_period_scale(3) halfway through
};

std::string quiet_case_name(const ::testing::TestParamInfo<QuietCase>& i) {
  return i.param.name;
}

void PrintTo(const QuietCase& c, std::ostream* os) { *os << c.name; }

/// One op of the stream, as the op-by-op reference receives it.
struct RecordedOp {
  bool is_access = false;
  sim::MemAccess access;        // accesses
  sim::ThreadId tid = 0;        // computes
  sim::CoreId core = 0;
  std::uint64_t instrs = 0;
  sim::Addr ip = 0;
  sim::Cycles now = 0;
};

bool same_sample(const Sample& a, const Sample& b) {
  return a.tid == b.tid && a.core == b.core && a.precise_ip == b.precise_ip &&
         a.signal_ip == b.signal_ip && a.is_memory == b.is_memory &&
         a.eaddr == b.eaddr && a.size == b.size && a.is_store == b.is_store &&
         a.latency == b.latency && a.source == b.source &&
         a.tlb_miss == b.tlb_miss && a.event == b.event && a.at == b.at;
}

/// pmu.* registry totals, to diff around one PmuSet's run.
std::map<std::string, std::uint64_t> pmu_series() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& e : obs::Registry::global().snapshot().entries) {
    if (e.name.rfind("pmu.", 0) == 0) out[e.key()] = e.value;
  }
  return out;
}

std::map<std::string, std::uint64_t> series_delta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    out[k] = v - (it == before.end() ? 0 : it->second);
  }
  return out;
}

class PmuQuietPath : public ::testing::TestWithParam<QuietCase> {};

TEST_P(PmuQuietPath, MatchesOpByOpDelivery) {
  const QuietCase& qc = GetParam();
  sim::MachineConfig mcfg;
  mcfg.sockets = 2;
  mcfg.cores_per_socket = 2;
  mcfg.l1 = sim::CacheConfig{1024, 2, 64};
  mcfg.l2 = sim::CacheConfig{4096, 4, 64};
  mcfg.l3 = sim::CacheConfig{16384, 8, 64};
  mcfg.tlb_entries = 4;
  sim::Machine machine(mcfg);
  std::mt19937_64 rng(7);
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  constexpr int kOps = 60'000;
  const int throttle_at = qc.throttle ? kOps / 2 : -1;

  // Run 1: the PmuSet attached to the machine (skip-ahead).
  const auto before_a = pmu_series();
  std::vector<Sample> got;
  std::vector<RecordedOp> ops;
  {
    PmuSet pmu(mcfg, qc.cfgs);
    pmu.set_handler([&](const Sample& smp) { got.push_back(smp); });
    machine.set_observer(&pmu);
    std::vector<sim::Cycles> clock(4, 0);
    std::uint64_t remote = 0;
    for (int op = 0; op < kOps; ++op) {
      if (op == throttle_at) pmu.set_period_scale(3);
      const auto core = static_cast<sim::CoreId>(pick(4));
      const auto tid = static_cast<sim::ThreadId>(core + 4 * pick(2));
      sim::Cycles& clk = clock[static_cast<std::size_t>(core)];
      RecordedOp rec;
      if (pick(3) != 0) {
        const sim::Addr addr = 0x10000000 + pick(64 * 4096) / 8 * 8;
        const sim::Addr ip = 0x400000 + pick(16) * 4;
        const bool store = pick(4) == 0;
        const sim::Cycles at = clk;
        const sim::AccessResult r =
            machine.access(tid, core, ip, addr, 8, store, clk);
        rec.is_access = true;
        rec.access = sim::MemAccess{tid, core, ip, addr, 8, store, r, at};
        if (r.level == sim::MemLevel::kRemoteDram) ++remote;
      } else {
        // 0-op blocks, short blocks, and blocks spanning several periods.
        const std::uint64_t sizes[] = {0, 1, 3, 17, 70, 400};
        rec.tid = tid;
        rec.core = core;
        rec.instrs = sizes[pick(std::size(sizes))];
        rec.ip = 0x500000 + pick(16) * 4;
        machine.compute(tid, core, rec.instrs, rec.ip, clk);
        rec.now = clk;
      }
      ops.push_back(rec);
      if (op % 9'999 == 0) {
        // A sync point makes every count exact mid-run.
        machine.sync_observer();
        for (std::size_t i = 0; i < qc.cfgs.size(); ++i) {
          EXPECT_EQ(pmu.events_counted(i),
                    qc.cfgs[i].event == EventKind::kIbsOp
                        ? machine.instructions_retired()
                        : remote)
              << "cfg " << i << " at op " << op;
        }
      }
    }
    machine.set_observer(nullptr);  // reports the held ops
    for (std::size_t i = 0; i < qc.cfgs.size(); ++i) {
      EXPECT_EQ(pmu.events_counted(i),
                qc.cfgs[i].event == EventKind::kIbsOp
                    ? machine.instructions_retired()
                    : remote);
    }
  }
  const auto after_a = pmu_series();

  // Run 2: the same stream, op by op, into a fresh PmuSet.
  std::vector<Sample> want;
  {
    PmuSet pmu(mcfg, qc.cfgs);
    pmu.set_handler([&](const Sample& smp) { want.push_back(smp); });
    for (int op = 0; op < kOps; ++op) {
      if (op == throttle_at) pmu.set_period_scale(3);
      const RecordedOp& rec = ops[static_cast<std::size_t>(op)];
      if (rec.is_access) {
        pmu.on_access(rec.access);
      } else {
        pmu.on_compute(rec.tid, rec.core, rec.instrs, rec.ip, rec.now);
      }
    }
    EXPECT_EQ(pmu.samples_taken(), want.size());
  }
  const auto after_b = pmu_series();

  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(same_sample(got[i], want[i])) << "sample " << i;
  }
  // Each run's registry contribution (pmu.samples, pmu.events{...}).
  EXPECT_EQ(series_delta(before_a, after_a), series_delta(after_a, after_b));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PmuQuietPath,
    ::testing::Values(
        QuietCase{"IbsJitter", {PmuConfig{EventKind::kIbsOp, 64, 2, 8}}},
        QuietCase{"Rmem",
                  {PmuConfig{EventKind::kMarkedDataFromRMem, 8, 2, 2}}},
        QuietCase{"IbsPlusRmem",
                  {PmuConfig{EventKind::kIbsOp, 50, 2, 6},
                   PmuConfig{EventKind::kMarkedDataFromRMem, 4, 2, 1}}},
        QuietCase{"TwoIbsThrottled",
                  {PmuConfig{EventKind::kIbsOp, 64, 2, 8},
                   PmuConfig{EventKind::kIbsOp, 97, 0, 0}},
                  true}),
    quiet_case_name);

// After a workload's run() — before take_profiles() ends the session —
// every count is exact: IBS counted every op retired since attach, and
// each sample reached the profiler. Streamcluster ends on a parallel
// construct; Sweep3D runs on the master thread only.
TEST(PmuSkipAhead, CountsExactAfterWorkloadRun) {
  {
    wl::StreamclusterParams prm;
    prm.npoints = 2'000;
    prm.dim = 8;
    prm.iters = 1;
    wl::ProcessCtx proc(wl::node_config(), 8, "sc");
    wl::Streamcluster w(proc, prm);
    proc.enable_profiling(wl::ibs_config(256));
    const std::uint64_t before = proc.machine().instructions_retired();
    w.run();
    EXPECT_EQ(proc.pmu()->events_counted(0),
              proc.machine().instructions_retired() - before);
    EXPECT_GT(proc.pmu()->samples_taken(), 0u);
    EXPECT_EQ(proc.pmu()->samples_taken(),
              proc.profiler()->stats().samples_handled);
  }
  {
    wl::Sweep3dParams prm;
    prm.ranks = 1;
    prm.nx = 8;
    prm.ny = 8;
    prm.nz = 8;
    prm.compute_per_cell = 20;  // shorter than a period: the tail is quiet
    wl::ProcessCtx proc(wl::rank_config(), 1, "sweep3d");
    proc.enable_profiling(wl::ibs_config(1024));
    const std::uint64_t before = proc.machine().instructions_retired();
    wl::Sweep3dRank w(proc, prm, nullptr);
    w.run();
    EXPECT_EQ(proc.pmu()->events_counted(0),
              proc.machine().instructions_retired() - before);
    EXPECT_GT(proc.pmu()->samples_taken(), 0u);
  }
}

}  // namespace
}  // namespace dcprof::pmu
