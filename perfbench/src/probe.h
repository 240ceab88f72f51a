// Benchmark-side instrumentation around the library's public entry points.
//
// Nothing here reaches into the library: the benchmark hands each rank a
// TimedComm (an mp::Comm that forwards to ft::Ctx or mp::RawComm) and opens a
// RankScope at the top of every rank function.  Together they record
//   - per-rank entry times (setup_s) and incarnation restarts (restart and
//     recovery times, seen as an unwind followed by a re-entry);
//   - one-way send->deliver latency: the sender stamps its k-th message on a
//     channel before calling send, the receiver reads that stamp when its
//     k-th delivery from the same sender returns (delivery is FIFO per
//     sender, so the k-th delivery is the k-th send);
//   - per-channel message counts, checked against a failure-free reference;
//   - when tracing, spans (name, start, end, parent, rank, incarnation) for
//     every rank function and every send/recv/checkpoint call.
//
// Threading: a RankProbe is written only by its rank's thread (incarnations
// of one rank run one after another) and read by the main thread after
// run_job / run_raw joined every rank.  Channel stamps cross threads through
// atomics; the library's own delivery synchronisation orders the stamp
// store before the receiver's load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mp/comm.h"
#include "windar/runtime.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      // 0 is the job span
  std::uint32_t parent = 0;
  int rank = -1;             // -1: the job span
  std::uint32_t incarnation = 0;
};

struct alignas(64) RankProbe {
  std::vector<std::uint64_t> sent;       // per destination
  std::vector<std::uint64_t> delivered;  // per source
  std::vector<std::int64_t> latency_ns;  // one per stamped delivery
  std::vector<Span> spans;
  std::uint32_t entries = 0;             // incarnations started
  std::uint32_t next_span = 1;
  std::uint32_t rank_span = 0;
  std::int64_t first_entry_ns = -1;
  std::int64_t first_send_ns = -1;
  std::int64_t last_deliver_ns = -1;
  std::int64_t unwind_ns = -1;
  bool awaiting_first_recv = false;
  std::vector<double> restart_ms;    // unwind -> re-entry, per restart
  std::vector<double> recovery_ms;   // unwind -> first recv returned
  double checksum = std::numeric_limits<double>::quiet_NaN();
  bool returned = false;
  std::uint64_t errors = 0;          // workload-level output check failures
  std::string first_error;

  void error(std::string what) {
    if (errors++ == 0) first_error = std::move(what);
  }
};

/// Shared per-job instrumentation state.  `caps[src * n + dst]` bounds the
/// stamps kept for each channel (0 = count only, as in the reference run).
class JobProbe {
 public:
  JobProbe(int n, const std::vector<std::uint64_t>& caps, bool tracing)
      : n_(n), tracing_(tracing), ranks_(static_cast<std::size_t>(n)),
        caps_(caps), live_(std::make_unique<std::atomic<bool>[]>(caps.size())) {
    std::uint64_t total = 0;
    for (std::size_t c = 0; c < caps_.size(); ++c) {
      offset_.push_back(total);
      total += caps_[c];
      live_[c].store(true, std::memory_order_relaxed);
    }
    stamps_ = std::make_unique<std::atomic<std::int64_t>[]>(total);
    for (int r = 0; r < n; ++r) {
      RankProbe& rp = ranks_[static_cast<std::size_t>(r)];
      rp.sent.assign(static_cast<std::size_t>(n), 0);
      rp.delivered.assign(static_cast<std::size_t>(n), 0);
      std::uint64_t inbound = 0, outbound = 0;
      for (int p = 0; p < n; ++p) {
        inbound += caps_[channel(p, r)];
        outbound += caps_[channel(r, p)];
      }
      rp.latency_ns.reserve(inbound);
      if (tracing_) rp.spans.reserve(inbound + outbound + 64);
    }
  }
  JobProbe(const JobProbe&) = delete;
  JobProbe& operator=(const JobProbe&) = delete;

  bool tracing() const { return tracing_; }
  RankProbe& rank(int r) { return ranks_[static_cast<std::size_t>(r)]; }
  const std::vector<RankProbe>& ranks() const { return ranks_; }

  std::size_t channel(int src, int dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }
  bool live(std::size_t ch) const {
    return live_[ch].load(std::memory_order_acquire);
  }

  /// Called by `src`'s thread before its k-th send to `dst`.
  void stamp(int src, int dst, std::uint64_t k, std::int64_t t) {
    const std::size_t ch = channel(src, dst);
    if (k < caps_[ch] && live(ch)) {
      stamps_[offset_[ch] + k].store(t, std::memory_order_release);
    }
  }

  /// Called by `dst`'s thread when its k-th delivery from `src` returned.
  void deliver(int src, int dst, std::uint64_t k, std::int64_t t) {
    const std::size_t ch = channel(src, dst);
    if (k < caps_[ch] && live(ch)) {
      const std::int64_t sent =
          stamps_[offset_[ch] + k].load(std::memory_order_acquire);
      rank(dst).latency_ns.push_back(t - sent);
    }
  }

  /// An incarnation of `r` unwound: its channels stop being matched (its
  /// restart re-executes sends and replays deliveries from a checkpoint).
  void retire_channels(int r) {
    for (int p = 0; p < n_; ++p) {
      live_[channel(r, p)].store(false, std::memory_order_release);
      live_[channel(p, r)].store(false, std::memory_order_release);
    }
  }

  std::int64_t start_ns = 0;  // just before run_job / run_raw

 private:
  int n_;
  bool tracing_;
  std::vector<RankProbe> ranks_;
  std::vector<std::uint64_t> caps_;
  std::vector<std::uint64_t> offset_;
  std::unique_ptr<std::atomic<bool>[]> live_;
  std::unique_ptr<std::atomic<std::int64_t>[]> stamps_;
};

/// Opened first thing in a rank function; closes the rank span and notices
/// an incarnation being unwound by a kill.
class RankScope {
 public:
  RankScope(JobProbe& job, int rank)
      : job_(job), rp_(job.rank(rank)), rank_(rank),
        uncaught_(std::uncaught_exceptions()), start_(now_ns()) {
    if (rp_.entries++ == 0) {
      rp_.first_entry_ns = start_;
    } else {
      // A restart re-executes from a checkpoint; its channels no longer
      // line up with the stamps (also when the kill landed outside the
      // rank function, so no unwind was seen).
      job_.retire_channels(rank_);
      if (rp_.unwind_ns >= 0) {
        rp_.restart_ms.push_back(
            static_cast<double>(start_ - rp_.unwind_ns) / 1e6);
        rp_.awaiting_first_recv = true;
      }
    }
    rp_.rank_span = rp_.next_span++;
  }
  ~RankScope() {
    const std::int64_t end = now_ns();
    if (std::uncaught_exceptions() > uncaught_) {
      rp_.unwind_ns = end;
      rp_.awaiting_first_recv = false;
      job_.retire_channels(rank_);
    }
    if (job_.tracing()) {
      rp_.spans.push_back({"rank", start_, end, span_id(rp_.rank_span), 0,
                           rank_, rp_.entries - 1});
    }
  }
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

  /// Job-unique span id: rank in the top byte, per-rank counter below.
  std::uint32_t span_id(std::uint32_t local) const {
    return (static_cast<std::uint32_t>(rank_ + 1) << 24) | local;
  }

 private:
  JobProbe& job_;
  RankProbe& rp_;
  int rank_;
  int uncaught_;
  std::int64_t start_;
};

/// The mp::Comm every benchmark rank function talks to.  `ft` is null over
/// mp::run_raw, where checkpoint() is a no-op.
class TimedComm final : public windar::mp::Comm {
 public:
  TimedComm(windar::mp::Comm& inner, windar::ft::Ctx* ft, JobProbe& job,
            const RankScope& scope)
      : inner_(inner), ft_(ft), job_(job), scope_(scope),
        rank_(inner.rank()), rp_(job.rank(rank_)) {}

  int rank() const override { return rank_; }
  int size() const override { return inner_.size(); }

  void send(int dst, int tag, std::span<const std::uint8_t> payload) override {
    const std::int64_t t0 = now_ns();
    if (rp_.first_send_ns < 0) rp_.first_send_ns = t0;
    job_.stamp(rank_, dst, rp_.sent[static_cast<std::size_t>(dst)]++, t0);
    inner_.send(dst, tag, payload);
    if (job_.tracing()) span("send", t0);
  }

  windar::mp::Message recv(int src, int tag) override {
    const std::int64_t t0 = job_.tracing() ? now_ns() : 0;
    windar::mp::Message m = inner_.recv(src, tag);
    const std::int64_t t1 = now_ns();
    rp_.last_deliver_ns = t1;
    job_.deliver(m.src, rank_, rp_.delivered[static_cast<std::size_t>(m.src)]++,
                 t1);
    if (rp_.awaiting_first_recv) {
      rp_.recovery_ms.push_back(static_cast<double>(t1 - rp_.unwind_ns) / 1e6);
      rp_.awaiting_first_recv = false;
    }
    if (job_.tracing()) span("recv", t0, t1);
    return m;
  }

  bool probe(int src, int tag) override { return inner_.probe(src, tag); }

  void checkpoint(std::span<const std::uint8_t> state) {
    if (ft_ == nullptr) return;
    const std::int64_t t0 = job_.tracing() ? now_ns() : 0;
    ft_->checkpoint(state);
    if (job_.tracing()) span("checkpoint", t0);
  }

  const std::optional<windar::util::Bytes>* restored() const {
    return ft_ ? &ft_->restored() : nullptr;
  }

 private:
  void span(const char* name, std::int64_t t0, std::int64_t t1 = now_ns()) {
    rp_.spans.push_back({name, t0, t1, scope_.span_id(rp_.next_span++),
                         scope_.span_id(rp_.rank_span), rank_,
                         rp_.entries - 1});
  }

  windar::mp::Comm& inner_;
  windar::ft::Ctx* ft_;
  JobProbe& job_;
  const RankScope& scope_;
  int rank_;
  RankProbe& rp_;
};

}  // namespace perfbench
