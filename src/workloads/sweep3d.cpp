#include "workloads/sweep3d.h"

#include <chrono>
#include <mutex>
#include <vector>

namespace dcprof::wl {

Sweep3dRank::Sweep3dRank(ProcessCtx& proc, const Sweep3dParams& params,
                         rt::Rank* rank)
    : p_(&proc), prm_(params), rank_(rank) {
  binfmt::LoadModule& m = p_->exe();
  const auto f_driver = m.add_function("inner", "inner.f");
  ip_call_sweep_ = m.add_instr(f_driver, 85);
  ip_alloc_flux_ = m.add_instr(f_driver, 40);
  ip_alloc_src_ = m.add_instr(f_driver, 41);
  ip_alloc_face_ = m.add_instr(f_driver, 42);
  ip_src_init_ = m.add_instr(f_driver, 60);
  const auto f_sweep = m.add_function("sweep", "sweep.f");
  ip_face_load_ = m.add_instr(f_sweep, 440);
  ip_face_store_ = m.add_instr(f_sweep, 445);
  ip_src_load_ = m.add_instr(f_sweep, 475);
  ip_flux_load_ = m.add_instr(f_sweep, 480);
  ip_src_load2_ = m.add_instr(f_sweep, 481);
  ip_flux_store_ = m.add_instr(f_sweep, 482);
  ip_wmu_load_ = m.add_instr(f_sweep, 484);

  w_mu_ = rt::StaticArray<double>(m, "w_mu", 8192);

  p_->annotate(ip_alloc_flux_, "Flux");
  p_->annotate(ip_alloc_src_, "Src");
  p_->annotate(ip_alloc_face_, "Face");

  rt::ThreadCtx& t = p_->team().master();
  const std::int64_t cells =
      static_cast<std::int64_t>(prm_.nx) * prm_.ny * prm_.nz;
  {
    rt::Scope s(t, ip_alloc_flux_);
    flux_ = rt::SimArray<double>::malloc_in(
        p_->alloc(), t, static_cast<std::uint64_t>(cells), ip_alloc_flux_);
  }
  {
    rt::Scope s(t, ip_alloc_src_);
    src_ = rt::SimArray<double>::malloc_in(
        p_->alloc(), t, static_cast<std::uint64_t>(cells), ip_alloc_src_);
  }
  {
    rt::Scope s(t, ip_alloc_face_);
    face_ = rt::SimArray<double>::malloc_in(
        p_->alloc(), t,
        static_cast<std::uint64_t>(prm_.ny) * prm_.nz * 6, ip_alloc_face_);
  }

  // Source/flux initialization, indexed by cell so results are
  // layout-independent (the transpose must not change the physics).
  for (std::int64_t k = 0; k < prm_.nz; ++k) {
    for (std::int64_t j = 0; j < prm_.ny; ++j) {
      for (std::int64_t i = 0; i < prm_.nx; ++i) {
        const std::uint64_t c = vol_index(i, j, k);
        src_.set(t, c, 1.0 + static_cast<double>((i + 3 * j + 7 * k) % 5),
                 ip_src_init_);
        flux_.set(t, c, 0.0, ip_src_init_);
      }
    }
  }
  for (std::uint64_t w = 0; w < w_mu_.size(); ++w) {
    w_mu_.set(t, w, 0.9 + 0.01 * static_cast<double>(w % 16), ip_src_init_);
  }
}

std::uint64_t Sweep3dRank::vol_index(std::int64_t i, std::int64_t j,
                                     std::int64_t k) const {
  if (prm_.transposed) {
    // Optimized layout: the k (innermost-traversed) index is contiguous.
    return static_cast<std::uint64_t>(k +
                                      prm_.nz * (i + std::int64_t{prm_.nx} * j));
  }
  // Original Fortran layout Flux(i,j,k): i contiguous, k slowest — the
  // k-innermost sweep strides by nx*ny elements.
  return static_cast<std::uint64_t>(i +
                                    prm_.nx * (j + std::int64_t{prm_.ny} * k));
}

void Sweep3dRank::sweep_octant(int octant) {
  rt::ThreadCtx& t = p_->team().master();
  rt::Scope s(t, ip_call_sweep_);
  const bool forward = (octant & 1) == 0;
  const int self = rank_ != nullptr ? rank_->id() : 0;
  const int nranks = rank_ != nullptr ? rank_->nranks() : 1;
  const int upstream = forward ? self - 1 : self + 1;
  const int downstream = forward ? self + 1 : self - 1;
  const std::uint64_t plane =
      static_cast<std::uint64_t>(prm_.ny) * prm_.nz;

  // Receive the upstream boundary plane into the Face slot 0.
  std::vector<double> buf(plane, 0.5 + 0.125 * octant);
  if (upstream >= 0 && upstream < nranks) {
    rank_->recv(upstream, octant, buf.data(), plane * sizeof(double));
  }
  for (std::uint64_t f = 0; f < plane; ++f) {
    face_.set(t, f * 6, buf[f], ip_face_store_);
  }

  const auto face_idx = [&](std::int64_t j, std::int64_t k) {
    return static_cast<std::uint64_t>(j + prm_.ny * k) * 6 +
           static_cast<std::uint64_t>(octant % 3) + 1;
  };

  // The sweep: j / i outer, k innermost (the paper's lines 477-480).
  for (std::int64_t j = 0; j < prm_.ny; ++j) {
    for (std::int64_t i = 0; i < prm_.nx; ++i) {
      double incoming = face_.get(
          t, static_cast<std::uint64_t>(j) * 6, ip_face_load_);
      for (std::int64_t k = 0; k < prm_.nz; ++k) {
        const std::uint64_t c = vol_index(i, j, k);
        const double s1 = src_.get(t, c, ip_src_load_);
        const double f0 = flux_.get(t, c, ip_flux_load_);
        const double s2 = src_.get(t, c, ip_src_load2_);
        const double fc = face_.get(t, face_idx(j, k), ip_face_load_);
        const double wm = w_mu_.get(
            t, static_cast<std::uint64_t>(k * 8) % w_mu_.size(),
            ip_wmu_load_);
        const double out =
            wm * (s1 + 0.25 * s2 + incoming + 0.125 * fc) /
            (4.0 + 0.01 * f0);
        flux_.set(t, c, f0 + out, ip_flux_store_);
        face_.set(t, face_idx(j, k), 0.5 * fc + 0.25 * out, ip_face_store_);
        incoming = 0.75 * incoming + 0.05 * out;
        t.compute(static_cast<std::uint64_t>(prm_.compute_per_cell),
                  ip_call_sweep_);
      }
    }
  }

  // Send the downstream boundary plane.
  if (downstream >= 0 && downstream < nranks) {
    for (std::uint64_t f = 0; f < plane; ++f) {
      buf[f] = face_.get(t, f * 6 + 1, ip_face_load_) +
               0.01 * static_cast<double>(f % 3);
    }
    rank_->send(downstream, octant, buf.data(), plane * sizeof(double));
  }
}

RunResult Sweep3dRank::run() {
  RunResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  for (int sweep = 0; sweep < prm_.sweeps; ++sweep) {
    for (int octant = 0; octant < prm_.octants; ++octant) {
      sweep_octant(octant);
    }
  }
  p_->team().barrier();  // ends the run at a sync point, like the others
  result.sim_cycles = p_->team().now();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  // Sum in cell order (not memory order) so the checksum is exactly
  // layout-independent.
  double sum = 0;
  for (std::int64_t k = 0; k < prm_.nz; ++k) {
    for (std::int64_t j = 0; j < prm_.ny; ++j) {
      for (std::int64_t i = 0; i < prm_.nx; ++i) {
        sum += flux_.host(vol_index(i, j, k));
      }
    }
  }
  result.checksum = sum;
  return result;
}

Sweep3dClusterResult run_sweep3d_cluster(
    const Sweep3dParams& params, bool profiled,
    std::vector<pmu::PmuConfig> pmu_cfgs, bool tool_attached) {
  rt::Cluster cluster(params.ranks, rank_config(), /*threads_per_rank=*/1);
  std::vector<double> checksums(static_cast<std::size_t>(params.ranks), 0);
  std::vector<sim::Cycles> cycles(static_cast<std::size_t>(params.ranks), 0);
  std::vector<core::ThreadProfile> profiles(
      static_cast<std::size_t>(params.ranks));
  std::mutex profile_mu;

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.run([&](rt::Rank& rank) {
    ProcessCtx proc(rank, "sweep3d");
    if (profiled) {
      proc.enable_profiling(pmu_cfgs, {}, rank.id(), tool_attached);
    }
    Sweep3dRank w(proc, params, &rank);
    const RunResult r = w.run();
    const auto id = static_cast<std::size_t>(rank.id());
    checksums[id] = r.checksum;
    cycles[id] = r.sim_cycles;
    if (profiled && tool_attached) {
      std::lock_guard lock(profile_mu);
      profiles[id] = proc.merged_profile();
    }
  });

  Sweep3dClusterResult out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  for (const auto c : cycles) out.sim_cycles = std::max(out.sim_cycles, c);
  for (const auto c : checksums) out.checksum += c;
  if (profiled && tool_attached) {
    out.profile = analysis::reduce(std::move(profiles));
  }
  return out;
}

}  // namespace dcprof::wl
