#include "rt/cluster.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

namespace dcprof::rt {

Rank::Rank(Cluster& cluster, int rank, const sim::MachineConfig& cfg,
           int threads)
    : cluster_(&cluster), rank_(rank), machine_(cfg),
      team_(machine_, threads), alloc_(machine_) {}

int Rank::nranks() const { return cluster_->nranks(); }

void Rank::send(int dst, int tag, const void* data, std::uint64_t bytes) {
  ThreadCtx& ctx = comm_ctx();
  ctx.set_clock(ctx.clock() + cluster_->cost_.alpha);
  cluster_->post(rank_, dst, tag, data, bytes, ctx.clock());
}

void Rank::recv(int src, int tag, void* data, std::uint64_t bytes) {
  Cluster::Message msg = cluster_->take(src, rank_, tag);
  if (msg.data.size() != bytes) {
    throw std::length_error("recv: message size mismatch");
  }
  if (bytes > 0) std::memcpy(data, msg.data.data(), bytes);
  ThreadCtx& ctx = comm_ctx();
  const Cycles arrival = msg.sent_at + cluster_->cost_.transfer(bytes);
  ctx.set_clock(std::max(ctx.clock(), arrival));
}

double Rank::allreduce_sum(double value) {
  return cluster_->collective(*this, Cluster::CollectiveOp::kSum, value);
}

double Rank::allreduce_max(double value) {
  return cluster_->collective(*this, Cluster::CollectiveOp::kMax, value);
}

void Rank::barrier() {
  cluster_->collective(*this, Cluster::CollectiveOp::kBarrier, 0.0);
}

void Cluster::Completion::operator()() noexcept {
  Cycles max_clock = 0;
  double sum = 0;
  double maxv = cluster->value_slot_.empty() ? 0 : cluster->value_slot_[0];
  for (std::size_t r = 0; r < cluster->clock_slot_.size(); ++r) {
    max_clock = std::max(max_clock, cluster->clock_slot_[r]);
    sum += cluster->value_slot_[r];
    maxv = std::max(maxv, cluster->value_slot_[r]);
  }
  cluster->result_clock_ = max_clock;
  cluster->result_sum_ = sum;
  cluster->result_max_ = maxv;
}

Cluster::Cluster(int nranks, const sim::MachineConfig& cfg,
                 int threads_per_rank) {
  if (nranks <= 0) throw std::invalid_argument("cluster needs >= 1 rank");
  clock_slot_.assign(static_cast<std::size_t>(nranks), 0);
  value_slot_.assign(static_cast<std::size_t>(nranks), 0.0);
  rendezvous_ = std::make_unique<std::barrier<Completion>>(
      nranks, Completion{this});
  for (int r = 0; r < nranks; ++r) {
    ranks_.push_back(
        std::make_unique<Rank>(*this, r, cfg, threads_per_rank));
  }
}

Cluster::~Cluster() = default;

void Cluster::post(int src, int dst, int tag, const void* data,
                   std::uint64_t bytes, Cycles sent_at) {
  Message msg;
  msg.data.resize(bytes);
  if (bytes > 0) std::memcpy(msg.data.data(), data, bytes);
  msg.sent_at = sent_at;
  {
    std::lock_guard lock(queue_mu_);
    queues_[Key{src, dst, tag}].push_back(std::move(msg));
  }
  queue_cv_.notify_all();
}

Cluster::Message Cluster::take(int src, int dst, int tag) {
  std::unique_lock lock(queue_mu_);
  const Key key{src, dst, tag};
  queue_cv_.wait(lock, [&] {
    auto it = queues_.find(key);
    return it != queues_.end() && !it->second.empty();
  });
  auto& q = queues_[key];
  Message msg = std::move(q.front());
  q.pop_front();
  return msg;
}

double Cluster::collective(Rank& rank, CollectiveOp op, double value) {
  // The rank's team is quiesced to a single clock before synchronizing.
  rank.team().barrier();
  const auto r = static_cast<std::size_t>(rank.id());
  clock_slot_[r] = rank.team().now();
  value_slot_[r] = value;
  rendezvous_->arrive_and_wait();
  const int stages = std::bit_width(static_cast<unsigned>(nranks() - 1));
  const Cycles after =
      result_clock_ + cost_.alpha * static_cast<Cycles>(stages);
  for (int t = 0; t < rank.team().size(); ++t) {
    rank.team().thread(t).set_clock(after);
  }
  switch (op) {
    case CollectiveOp::kSum: return result_sum_;
    case CollectiveOp::kMax: return result_max_;
    case CollectiveOp::kBarrier: return 0.0;
  }
  return 0.0;
}

void Cluster::run(const std::function<void(Rank&)>& body) {
  std::vector<std::thread> threads;
  std::exception_ptr first_error;
  std::mutex error_mu;
  threads.reserve(ranks_.size());
  for (auto& rank : ranks_) {
    threads.emplace_back([&, rank_ptr = rank.get()] {
      try {
        body(*rank_ptr);
      } catch (...) {
        std::lock_guard lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dcprof::rt
