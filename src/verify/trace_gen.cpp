#include "verify/trace_gen.h"

#include <functional>
#include <utility>

#include "analysis/merge.h"
#include "binfmt/load_module.h"
#include "core/profiler.h"
#include "rt/alloc.h"
#include "rt/team.h"
#include "sim/machine.h"
#include "verify/invariants.h"
#include "verify/oracle.h"
#include "verify/rng.h"
#include "workloads/harness.h"

namespace dcprof::verify {

using core::ThreadProfile;

namespace {

/// Trace shape and profiler knobs, all drawn from the seed. Only knobs
/// that affect profile *content* vary here; the fast-path toggles are
/// what the differential itself exercises.
struct TraceConfig {
  int nthreads = 1;
  std::size_t nops = 0;
  core::TrackerConfig tracker;
  bool use_precise_ip = true;
  bool attribute_stack = true;
};

TraceConfig make_config(Rng& rng) {
  TraceConfig cfg;
  cfg.nthreads = static_cast<int>(1 + rng.next(6));
  cfg.nops = 300 + rng.next(900);
  const std::uint64_t thresholds[] = {0, 64, 4096};
  cfg.tracker.size_threshold = thresholds[rng.next(3)];
  cfg.tracker.track_all = rng.chance(1, 4);
  const std::uint64_t small_periods[] = {0, 0, 1, 3, 7};
  cfg.tracker.small_sample_period = small_periods[rng.next(5)];
  cfg.use_precise_ip = !rng.chance(1, 5);
  cfg.attribute_stack = !rng.chance(1, 5);
  return cfg;
}

/// One fresh simulated world per replay: machine, team, allocator, and a
/// load module providing an IP pool and static variables. Everything is
/// rebuilt per mode so no state leaks between the three runs.
struct World {
  sim::Machine machine;
  rt::Team team;
  rt::Allocator alloc;
  binfmt::LoadModule exe;
  binfmt::ModuleRegistry modules;
  std::vector<sim::Addr> ips;
  std::vector<std::pair<sim::Addr, std::uint64_t>> statics;  // base, size

  explicit World(const TraceConfig& cfg)
      : machine(wl::node_config()),
        team(machine, cfg.nthreads),
        alloc(machine),
        exe("trace_gen", machine.aspace()) {
    modules.load(&exe);
    const binfmt::FuncId f = exe.add_function("work", "trace_gen.cc");
    for (int i = 0; i < 40; ++i) ips.push_back(exe.add_instr(f, i + 1));
    const std::pair<const char*, std::uint64_t> vars[] = {
        {"grid", 4096}, {"rhs", 256}, {"lut", 64}, {"edges", 1u << 16}};
    for (const auto& [name, size] : vars) {
      statics.emplace_back(exe.add_static_var(name, size), size);
    }
  }
};

/// Replays the seeded op stream against one sample sink. The allocator's
/// hooks (installed by whichever profiler is under test) observe the
/// alloc/free ops; samples go to `sample_fn` directly. All replay-local
/// state (live blocks, freed bases) evolves identically across modes
/// because the allocator is deterministic.
struct ReplayStats {
  std::size_t samples = 0;
};

ReplayStats replay(World& w, const TraceConfig& cfg, Rng rng,
                   const std::function<void(const pmu::Sample&)>& sample_fn) {
  ReplayStats stats;
  std::vector<std::pair<sim::Addr, std::uint64_t>> live;
  std::vector<sim::Addr> freed;
  const sim::MemLevel levels[] = {
      sim::MemLevel::kL1, sim::MemLevel::kL2, sim::MemLevel::kL3,
      sim::MemLevel::kLocalDram, sim::MemLevel::kRemoteDram};

  for (std::size_t op = 0; op < cfg.nops; ++op) {
    const auto tid = static_cast<int>(rng.next(cfg.nthreads));
    rt::ThreadCtx& ctx = w.team.thread(tid);
    const std::uint64_t roll = rng.next(100);

    if (roll < 22) {  // push a frame (pop instead when too deep)
      const sim::Addr ip = w.ips[rng.next(w.ips.size())];
      if (ctx.stack_depth() < 24) {
        ctx.push_frame(ip);
      } else {
        ctx.pop_frame();
      }
    } else if (roll < 38) {  // pop a frame (push instead at the root)
      const sim::Addr ip = w.ips[rng.next(w.ips.size())];
      if (ctx.stack_depth() > 0) {
        ctx.pop_frame();
      } else {
        ctx.push_frame(ip);
      }
    } else if (roll < 55) {  // allocate: small, medium, or over-threshold
      const std::uint64_t kind = rng.next(3);
      const std::uint64_t size = kind == 0   ? 8 + rng.next(120)
                                 : kind == 1 ? 512 + rng.next(4000)
                                             : 4096 + rng.next(60000);
      const sim::Addr ip = w.ips[rng.next(w.ips.size())];
      const sim::Addr base = w.alloc.malloc(ctx, size, ip);
      live.emplace_back(base, size);
    } else if (roll < 65) {  // free a random live block
      if (!live.empty()) {
        const std::size_t idx = rng.next(live.size());
        w.alloc.free(ctx, live[idx].first);
        freed.push_back(live[idx].first);
        if (freed.size() > 16) freed.erase(freed.begin());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      }
    } else {  // deliver a PMU sample
      pmu::Sample s;
      // Occasionally a tid no profiler registered (must be dropped).
      s.tid = rng.chance(1, 16)
                  ? static_cast<sim::ThreadId>(cfg.nthreads + 3)
                  : static_cast<sim::ThreadId>(tid);
      s.core = ctx.core();
      s.at = static_cast<sim::Cycles>(op);
      s.precise_ip = w.ips[rng.next(w.ips.size())];
      s.signal_ip = w.ips[rng.next(w.ips.size())];
      s.is_memory = !rng.chance(1, 5);
      if (s.is_memory) {
        const std::uint64_t where = rng.next(8);
        if (where < 3 && !live.empty()) {  // inside a live heap block
          const auto& [base, size] = live[rng.next(live.size())];
          s.eaddr = base + rng.next(size);
        } else if (where == 3 && !freed.empty()) {  // a freed base (stale)
          s.eaddr = freed[rng.next(freed.size())];
        } else if (where == 4) {  // inside a static variable
          const auto& [base, size] = w.statics[rng.next(w.statics.size())];
          s.eaddr = base + rng.next(size);
        } else if (where == 5) {  // a thread's stack segment
          s.eaddr = w.machine.aspace().stack_base(
                        static_cast<sim::ThreadId>(tid)) +
                    rng.next(1u << 12);
        } else {  // unknown data (unmapped low memory)
          s.eaddr = 0x1000 + rng.next(1u << 20);
        }
        s.size = 8;
        s.is_store = rng.chance(1, 3);
        s.latency = 10 + rng.next(300);
        s.source = levels[rng.next(5)];
        s.tlb_miss = rng.chance(1, 10);
      }
      sample_fn(s);
      ++stats.samples;
    }
  }
  return stats;
}

enum class Mode { kFast, kSlow, kOracle };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kFast: return "fast";
    case Mode::kSlow: return "slow";
    case Mode::kOracle: return "oracle";
  }
  return "?";
}

struct ModeResult {
  std::vector<ThreadProfile> profiles;
  std::vector<std::string> bytes;  // serialized, parallel to profiles
  ReplayStats stats;
};

ModeResult run_mode(const TraceConfig& cfg, std::uint64_t seed, Mode mode) {
  World w(cfg);
  ModeResult out;
  if (mode == Mode::kOracle) {
    OracleConfig ocfg;
    ocfg.size_threshold = cfg.tracker.size_threshold;
    ocfg.track_all = cfg.tracker.track_all;
    ocfg.small_sample_period = cfg.tracker.small_sample_period;
    ocfg.use_precise_ip = cfg.use_precise_ip;
    ocfg.attribute_stack = cfg.attribute_stack;
    OracleProfiler prof(w.modules, ocfg, /*rank=*/0);
    prof.attach_allocator(w.alloc);
    prof.register_team(w.team);
    out.stats = replay(w, cfg, Rng(seed),
                       [&](const pmu::Sample& s) { prof.handle_sample(s); });
    out.profiles = prof.take_profiles();
  } else {
    core::ProfilerConfig pcfg;
    pcfg.tracker = cfg.tracker;
    pcfg.use_precise_ip = cfg.use_precise_ip;
    pcfg.attribute_stack = cfg.attribute_stack;
    if (mode == Mode::kSlow) {
      pcfg.memoized_attribution = false;
      pcfg.var_map_mru = false;
      pcfg.tracker.memoized_unwind = false;
    }
    core::Profiler prof(w.modules, pcfg, /*rank=*/0);
    prof.attach_allocator(w.alloc);
    prof.register_team(w.team);
    out.stats = replay(w, cfg, Rng(seed),
                       [&](const pmu::Sample& s) { prof.handle_sample(s); });
    out.profiles = prof.take_profiles();
  }
  for (const auto& p : out.profiles) out.bytes.push_back(p.serialize());
  return out;
}

void compare_bytes(const ModeResult& ref, const ModeResult& other,
                   Mode other_mode, TraceReport& report) {
  if (ref.bytes.size() != other.bytes.size()) {
    report.failures.push_back(
        std::string(mode_name(other_mode)) + " produced " +
        std::to_string(other.bytes.size()) + " profiles, fast produced " +
        std::to_string(ref.bytes.size()));
    return;
  }
  for (std::size_t i = 0; i < ref.bytes.size(); ++i) {
    if (ref.bytes[i] != other.bytes[i]) {
      report.failures.push_back(
          std::string(mode_name(other_mode)) +
          " profile diverges from fast path (tid " +
          std::to_string(ref.profiles[i].tid) + ")");
    }
  }
}

}  // namespace

std::string TraceReport::summary() const {
  std::string out = "seed " + std::to_string(seed) + ": " +
                    std::to_string(threads) + " threads, " +
                    std::to_string(ops) + " ops, " +
                    std::to_string(samples) + " samples, " +
                    std::to_string(profiles) + " profiles";
  if (!ok()) {
    out += "; FAILED:";
    for (const auto& f : failures) out += " [" + f + "]";
  }
  return out;
}

TraceReport run_trace_differential(std::uint64_t seed) {
  TraceReport report;
  report.seed = seed;

  Rng cfg_rng(Rng::mix(seed, 0));
  const TraceConfig cfg = make_config(cfg_rng);
  const std::uint64_t trace_seed = Rng::mix(seed, 1);
  report.threads = static_cast<std::size_t>(cfg.nthreads);
  report.ops = cfg.nops;

  const ModeResult fast = run_mode(cfg, trace_seed, Mode::kFast);
  const ModeResult slow = run_mode(cfg, trace_seed, Mode::kSlow);
  const ModeResult oracle = run_mode(cfg, trace_seed, Mode::kOracle);
  report.samples = fast.stats.samples;
  report.profiles = fast.profiles.size();

  compare_bytes(fast, slow, Mode::kSlow, report);
  compare_bytes(fast, oracle, Mode::kOracle, report);

  for (const auto& p : fast.profiles) {
    const CheckResult check = check_profile(p);
    if (!check.ok()) {
      report.failures.push_back("invariants (tid " + std::to_string(p.tid) +
                                "): " + check.summary());
    }
  }
  if (fast.profiles.size() >= 2) {
    const CheckResult algebra = check_merge_algebra(fast.profiles);
    if (!algebra.ok()) {
      report.failures.push_back("merge algebra: " + algebra.summary());
    }
  }

  // Production reduce vs oracle reduce, byte for byte. Rebuild the inputs
  // from the serialized forms (reduce consumes its argument).
  if (!fast.profiles.empty()) {
    std::vector<ThreadProfile> copy;
    copy.reserve(fast.bytes.size());
    for (const auto& b : fast.bytes) copy.push_back(ThreadProfile::read(b));
    const ThreadProfile reduced = analysis::reduce(std::move(copy));
    const ThreadProfile oreduced = oracle_reduce(fast.profiles);
    if (reduced.serialize() != oreduced.serialize()) {
      report.failures.push_back("reduce diverges from oracle reduce");
    }
  }
  return report;
}

std::vector<TraceReport> run_trace_campaign(std::uint64_t base_seed,
                                            std::size_t count) {
  std::vector<TraceReport> failures;
  for (std::size_t i = 0; i < count; ++i) {
    TraceReport r = run_trace_differential(Rng::mix(base_seed, 1000 + i));
    if (!r.ok()) failures.push_back(std::move(r));
  }
  return failures;
}

}  // namespace dcprof::verify
