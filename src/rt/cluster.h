// MPI-like multi-rank execution. Each rank owns an independent simulated
// machine (processes do not share an address space), a thread team, and an
// allocator. Ranks run on real host threads; messages and collectives
// carry simulated-clock timestamps so communication advances simulated
// time consistently. Because per-rank simulation state is isolated, the
// result is deterministic regardless of host scheduling.
#pragma once

#include <barrier>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "rt/alloc.h"
#include "rt/team.h"
#include "sim/machine.h"

namespace dcprof::rt {

/// Linear message cost model: latency alpha plus beta cycles per byte.
struct CommCost {
  Cycles alpha = 2000;
  double beta = 0.25;
  Cycles transfer(std::uint64_t bytes) const {
    return alpha + static_cast<Cycles>(beta * static_cast<double>(bytes));
  }
};

class Cluster;

/// One MPI-like process.
class Rank {
 public:
  Rank(Cluster& cluster, int rank, const sim::MachineConfig& cfg,
       int threads);

  int id() const { return rank_; }
  int nranks() const;

  sim::Machine& machine() { return machine_; }
  Team& team() { return team_; }
  Allocator& alloc() { return alloc_; }
  /// The thread that issues MPI calls (the team master).
  ThreadCtx& comm_ctx() { return team_.master(); }

  /// Blocking eager send/recv with matching (src, dst, tag).
  void send(int dst, int tag, const void* data, std::uint64_t bytes);
  void recv(int src, int tag, void* data, std::uint64_t bytes);

  double allreduce_sum(double value);
  double allreduce_max(double value);
  /// Barrier across all ranks; also synchronizes simulated clocks.
  void barrier();

 private:
  Cluster* cluster_;
  int rank_;
  sim::Machine machine_;
  Team team_;
  Allocator alloc_;
};

class Cluster {
 public:
  /// Each rank gets its own machine and team; run() drives every rank on
  /// its own host thread, which is the one host thread that machine sees.
  Cluster(int nranks, const sim::MachineConfig& cfg, int threads_per_rank);
  ~Cluster();

  int nranks() const { return static_cast<int>(ranks_.size()); }
  Rank& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }
  CommCost& comm_cost() { return cost_; }

  /// Runs `body` once per rank, each on its own host thread; rethrows the
  /// first rank exception after all ranks finish.
  ///
  /// Limitation (as with real MPI): if one rank dies while its peers are
  /// blocked inside a collective or a matching recv, the job hangs —
  /// SPMD code must keep collective sequences consistent across ranks.
  void run(const std::function<void(Rank&)>& body);

 private:
  friend class Rank;

  struct Message {
    std::vector<std::byte> data;
    Cycles sent_at = 0;
  };
  using Key = std::tuple<int, int, int>;  // src, dst, tag

  void post(int src, int dst, int tag, const void* data, std::uint64_t bytes,
            Cycles sent_at);
  Message take(int src, int dst, int tag);

  enum class CollectiveOp { kBarrier, kSum, kMax };
  /// Generic collective: deposits (clock, value); returns the combined
  /// value and sets the caller's clock past the synchronization point.
  double collective(Rank& rank, CollectiveOp op, double value);

  struct Completion {
    Cluster* cluster;
    void operator()() noexcept;
  };

  CommCost cost_;
  std::vector<std::unique_ptr<Rank>> ranks_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::map<Key, std::deque<Message>> queues_;

  // Collective rendezvous state (slots are per-rank, race-free).
  std::vector<Cycles> clock_slot_;
  std::vector<double> value_slot_;
  Cycles result_clock_ = 0;
  double result_sum_ = 0;
  double result_max_ = 0;
  std::unique_ptr<std::barrier<Completion>> rendezvous_;
};

}  // namespace dcprof::rt
