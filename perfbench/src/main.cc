// perfbench: the repository benchmark binary (see perfbench/README.md).
//
//   perfbench --workload lu|bt-fault|stream --seed N --seconds S --trace 0|1
//             --out DIR [--commit SHA] [--source-digest HEX]
//
// One run: build the workload's inputs from --seed, run a failure-free
// mp::run_raw reference outside the timed region (checksums, per-channel
// message counts), then repeat the logged job through ft::run_job for
// --seconds and report medians over jobs.  Every job's outputs are checked;
// the last stdout line is the result object
//   {"correct": ..., "attempted": jobs, "failed": jobs, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Any failed check exits 1; a job that overruns its deadline
// is reported as failed and exits 3 instead of hanging.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mp/runtime.h"
#include "npb/driver.h"
#include "probe.h"
#include "windar/fault.h"
#include "windar/runtime.h"
#include "windar/trace.h"

// ---- heap accounting: every operator new in this binary is counted --------
//
// Besides allocation counts, the live heap (usable bytes of blocks from
// operator new not yet deleted) and its high-water mark are tracked, so a
// job's peak heap is measured exactly instead of through the allocator's
// page retention.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

void* counted(void* p, std::size_t size) {
  if (p == nullptr) throw std::bad_alloc{};
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto usable = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
  std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* counted_alloc(std::size_t size) {
  return counted(std::malloc(size == 0 ? 1 : size), size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return counted(std::aligned_alloc(a, (std::max<std::size_t>(size, 1) + a - 1) /
                                           a * a),
                 size);
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t a) {
  return counted_aligned(size, a);
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return counted_aligned(size, a);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace perfbench {
namespace {

using namespace windar;

// ---- workloads ------------------------------------------------------------

enum class Kind { kLu, kBtFault, kStream };

struct Workload {
  Kind kind = Kind::kLu;
  std::string name;
  int n = 4;
  net::LatencyModel latency{};
  npb::Params params{};           // lu, bt-fault
  std::uint64_t stream_msgs = 0;  // stream: data messages per job
  std::uint64_t window = 0;       // stream: credit window (messages)
  std::uint64_t stream_ckpt = 0;  // stream: receiver checkpoint cadence
  bool npb() const { return kind != Kind::kStream; }
};

// The repository's NPB benchmark link model (bench_latency() in the figure
// benches): 8 us base, 8 ns per byte, 20 us uniform jitter.
net::LatencyModel npb_link() {
  net::LatencyModel m;
  m.base = std::chrono::nanoseconds(8'000);
  m.per_byte = std::chrono::nanoseconds(8);
  m.jitter = std::chrono::nanoseconds(20'000);
  return m;
}

bool make_workload(const std::string& name, Workload* w) {
  w->name = name;
  if (name == "lu") {
    w->kind = Kind::kLu;
    w->latency = npb_link();
    w->params = npb::make_params(npb::App::kLU, w->n);
    w->params.checkpoint_every = 4;
  } else if (name == "bt-fault") {
    w->kind = Kind::kBtFault;
    w->latency = npb_link();
    w->params = npb::make_params(npb::App::kBT, w->n, /*scale=*/4);
    w->params.checkpoint_every = 2;
  } else if (name == "stream") {
    w->kind = Kind::kStream;
    w->n = 2;
    w->latency = net::LatencyModel{std::chrono::nanoseconds(0),
                                   std::chrono::nanoseconds(0),
                                   std::chrono::nanoseconds(0)};
    w->stream_msgs = 40'000;
    w->window = 64;
    w->stream_ckpt = 4'096;
  } else {
    return false;
  }
  return true;
}

constexpr int kDataTag = 1;
constexpr int kCreditTag = 2;
constexpr std::size_t kStreamPayload = 64;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// Closed loop, one sender: rank 0 keeps at most two credit windows in
// flight; rank 1 checks every sequence number and payload word, returns a
// credit each window and checkpoints every `stream_ckpt` deliveries.
void stream_rank(const Workload& w, TimedComm& comm, RankProbe& rp) {
  const auto* restored = comm.restored();
  if (restored && restored->has_value()) rp.error("stream: unexpected restore");
  std::array<std::uint8_t, kStreamPayload> buf{};
  if (comm.rank() == 0) {
    std::uint64_t credited = 0;
    const auto take_credit = [&] {
      const auto c = mp::recv_value<std::uint64_t>(comm, 1, kCreditTag);
      credited += w.window;
      if (c != credited) rp.error("stream: credit out of order");
    };
    for (std::uint64_t seq = 0; seq < w.stream_msgs; ++seq) {
      while (seq >= credited + 2 * w.window) take_credit();
      const std::uint64_t check = mix(seq);
      std::memcpy(buf.data(), &seq, sizeof seq);
      std::memcpy(buf.data() + sizeof seq, &check, sizeof check);
      comm.send(1, kDataTag, buf);
    }
    while (credited < w.stream_msgs) take_credit();
    return;
  }
  for (std::uint64_t expected = 0; expected < w.stream_msgs;) {
    const mp::Message m = comm.recv(0, kDataTag);
    std::uint64_t seq = ~0ULL, check = 0;
    if (m.payload.size() == kStreamPayload) {
      std::memcpy(&seq, m.payload.data(), sizeof seq);
      std::memcpy(&check, m.payload.data() + sizeof seq, sizeof check);
    }
    if (seq != expected || check != mix(seq)) {
      rp.error("stream: expected seq " + std::to_string(expected) + ", got " +
               std::to_string(seq));
    }
    ++expected;
    if (expected % w.window == 0) {
      mp::send_value(comm, 0, kCreditTag, expected);
    }
    if (expected % w.stream_ckpt == 0) {
      comm.checkpoint(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(&expected), sizeof expected));
    }
  }
}

void rank_body(const Workload& w, TimedComm& comm, ft::Ctx* ft,
               RankProbe& rp) {
  if (w.npb()) {
    rp.checksum = npb::run_app(comm, w.params, ft);
  } else {
    stream_rank(w, comm, rp);
  }
  rp.returned = true;
}

// ---- statistics ------------------------------------------------------------

/// Log-bucketed histogram of durations in ns (0.5% wide buckets), so a
/// run can pool every sample of every job in fixed memory.  A quantile
/// reads as the mean of the samples in the bucket holding its nearest rank:
/// exact to the bucket width, and not snapped to bucket edges.
class Histogram {
 public:
  Histogram() : count_(kBuckets, 0), sum_(kBuckets, 0) {}

  void add(std::int64_t ns) {
    const double v = static_cast<double>(std::max<std::int64_t>(ns, 0));
    std::size_t b = v < 1 ? 0 : 1 + static_cast<std::size_t>(std::log(v) /
                                                             kLogGrowth);
    b = std::min(b, kBuckets - 1);
    ++count_[b];
    sum_[b] += v;
    ++total_;
  }

  std::uint64_t count() const { return total_; }

  double quantile_ns(double q) const {
    if (total_ == 0) return 0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += count_[b];
      if (seen >= rank) return sum_[b] / static_cast<double>(count_[b]);
    }
    return 0;
  }

 private:
  static constexpr std::size_t kBuckets = 5200;  // up to ~1.7e11 ns
  static inline const double kLogGrowth = std::log(1.005);
  std::vector<std::uint64_t> count_;
  std::vector<double> sum_;
  std::uint64_t total_ = 0;
};

/// Samples pooled over the jobs of one run.
struct RunHistograms {
  Histogram send, recv, checkpoint;  // traced jobs: wrapper spans
  // Untraced jobs: one-way latency.  Percentiles are taken over groups of
  // consecutive jobs holding at least kLatencyGroup samples, so a group
  // spans many kill points on bt-fault.
  // The run reports the median over groups, so a stretch of jobs disturbed
  // by the host does not move it.
  static constexpr std::uint64_t kLatencyGroup = 5000;
  Histogram latency;
  std::vector<double> p50_us, p90_us;
  std::uint64_t latency_samples = 0;
};

double median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 ? s[m] : (s[m - 1] + s[m]) / 2;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// ---- reference ------------------------------------------------------------

struct Reference {
  std::vector<double> checksum;           // per rank
  std::vector<std::uint64_t> channel;     // messages per channel src*n+dst
  std::vector<std::uint64_t> delivered;   // per rank
  std::uint64_t total_msgs = 0;
  double wall_s = 0;
};

Reference run_reference(const Workload& w, std::uint64_t seed) {
  const std::vector<std::uint64_t> no_stamps(
      static_cast<std::size_t>(w.n * w.n), 0);
  JobProbe job(w.n, no_stamps, false);
  job.start_ns = now_ns();
  mp::run_raw(
      w.n,
      [&](mp::Comm& c) {
        RankScope scope(job, c.rank());
        TimedComm comm(c, nullptr, job, scope);
        rank_body(w, comm, nullptr, job.rank(c.rank()));
      },
      w.latency, seed);
  Reference ref;
  ref.wall_s = static_cast<double>(now_ns() - job.start_ns) / 1e9;
  ref.delivered.assign(static_cast<std::size_t>(w.n), 0);
  for (int r = 0; r < w.n; ++r) {
    const RankProbe& rp = job.rank(r);
    if (!rp.returned || rp.errors) {
      throw std::runtime_error("reference run failed: " + rp.first_error);
    }
    ref.checksum.push_back(rp.checksum);
    for (int p = 0; p < w.n; ++p) {
      ref.channel.push_back(rp.sent[static_cast<std::size_t>(p)]);
      ref.total_msgs += rp.sent[static_cast<std::size_t>(p)];
      ref.delivered[static_cast<std::size_t>(r)] +=
          rp.delivered[static_cast<std::size_t>(p)];
    }
  }
  return ref;
}

// ---- one logged job ---------------------------------------------------------

struct JobRecord {
  bool ok = true;
  std::string why;
  double job_s = 0;
  double setup_s = 0;
  double msgs_per_s = 0;
  std::vector<double> restart_ms, recovery_ms;
  std::map<std::string, double> layer;  // per-layer values of this job
  std::vector<Span> spans;              // traced jobs only

  void fail(const std::string& what) {
    if (ok) why = what;
    ok = false;
  }
};

struct JobPlan {
  std::uint64_t seed = 1;
  int kill_rank = -1;          // bt-fault: rank killed on its kill_nth
  std::uint64_t kill_nth = 0;  // application packet delivery
};

void span_stats(const Workload& w, const JobProbe& job, const ft::Metrics& m,
                RunHistograms& hist, JobRecord& rec) {
  double rank_total = 0, rank_children = 0;
  for (const RankProbe& rp : job.ranks()) {
    for (const Span& s : rp.spans) {
      const std::int64_t ns = s.end_ns - s.start_ns;
      if (std::strcmp(s.name, "rank") == 0) {
        rank_total += static_cast<double>(ns);
        continue;
      }
      rank_children += static_cast<double>(ns);
      if (std::strcmp(s.name, "send") == 0) hist.send.add(ns);
      if (std::strcmp(s.name, "recv") == 0) hist.recv.add(ns);
      if (std::strcmp(s.name, "checkpoint") == 0) hist.checkpoint.add(ns);
    }
  }
  // NPB skeletons checkpoint through ft::Ctx directly, outside the wrapper:
  // take the application-thread checkpoint stall out of their self time.
  const double hidden_ckpt_ns =
      w.npb() ? static_cast<double>(m.ckpt_stall_ns) : 0;
  rec.layer["npb.compute_share"] =
      ratio(rank_total - rank_children - hidden_ckpt_ns, rank_total);
}

void counter_stats(const ft::JobResult& res, JobRecord& rec) {
  const ft::Metrics& m = res.total;
  const double sent = static_cast<double>(m.app_sent);
  rec.layer["windar.track_ns_per_msg"] =
      ratio(static_cast<double>(m.track_send_ns + m.track_deliver_ns), sent);
  rec.layer["windar.piggyback_b_per_msg"] =
      ratio(static_cast<double>(m.piggyback_bytes), sent);
  rec.layer["windar.control_per_msg"] =
      ratio(static_cast<double>(m.control_msgs), sent);
  rec.layer["net.wire_b_per_msg"] =
      ratio(static_cast<double>(res.fabric.bytes_sent), sent);
  rec.layer["net.packets_per_msg"] =
      ratio(static_cast<double>(res.fabric.packets_sent), sent);
  rec.layer["util.recycled_per_msg"] =
      ratio(static_cast<double>(m.packets_recycled), sent);
  rec.layer["windar.ckpt_stall_us"] =
      ratio(static_cast<double>(m.ckpt_stall_ns) / 1e3,
            static_cast<double>(m.checkpoints));
  rec.layer["windar.ckpt_commit_us"] =
      ratio(static_cast<double>(m.ckpt_commit_ns) / 1e3,
            static_cast<double>(m.ckpt_committed));
  rec.layer["windar.ckpt_kb_per_commit"] =
      ratio(static_cast<double>(res.checkpoints.bytes_written) / 1024,
            static_cast<double>(res.checkpoints.saves));
  rec.layer["windar.ckpt_delta_share"] =
      ratio(static_cast<double>(res.checkpoints.delta_saves),
            static_cast<double>(res.checkpoints.saves));
  rec.layer["windar.ckpt_commit_ratio"] =
      ratio(static_cast<double>(m.ckpt_committed),
            static_cast<double>(m.checkpoints));
  rec.layer["windar.resent_msgs"] = static_cast<double>(m.resent_msgs);
  rec.layer["windar.rollback_broadcasts"] =
      static_cast<double>(m.rollback_broadcasts);
  rec.layer["windar.held_sends"] = static_cast<double>(m.held_sends);
  std::uint64_t log_peak = 0;
  for (const ft::Metrics& pr : res.per_rank) {
    log_peak = std::max(log_peak, pr.log_peak_bytes);
  }
  rec.layer["windar.log_peak_kb"] = static_cast<double>(log_peak) / 1024;
}

/// One ft::run_job of the workload, checked against the reference.
/// `hist` (null for the warm-up job) pools this job's samples into the run.
JobRecord run_logged(const Workload& w, const Reference& ref,
                     const JobPlan& plan, bool traced,
                     const std::filesystem::path& spill,
                     RunHistograms* hist) {
  JobRecord rec;
  ft::JobConfig cfg;
  cfg.n = w.n;
  cfg.latency = w.latency;
  cfg.seed = plan.seed;
  if (w.npb()) {
    std::filesystem::remove_all(spill);
    std::filesystem::create_directories(spill);
    cfg.checkpoint_spill_dir = spill.string();
  }
  const std::uint64_t kills = plan.kill_rank >= 0 ? 1 : 0;
  if (kills) cfg.chaos.push_back(ft::kill_on_delivery(plan.kill_rank,
                                                      plan.kill_nth));
  ft::TraceSink sink;
  if (traced) cfg.trace = &sink;

  JobProbe job(w.n, ref.channel, traced);
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  ft::JobResult res;
  job.start_ns = now_ns();
  try {
    res = ft::run_job(cfg, [&](ft::Ctx& ctx) {
      RankScope scope(job, ctx.rank());
      TimedComm comm(ctx, &ctx, job, scope);
      rank_body(w, comm, &ctx, job.rank(ctx.rank()));
    });
  } catch (const std::exception& e) {
    rec.fail(std::string("run_job threw: ") + e.what());
  } catch (...) {
    rec.fail("run_job threw a non-std exception");
  }
  const std::int64_t end_ns = now_ns();
  const double allocs =
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - allocs0);
  const double alloc_b = static_cast<double>(
      g_alloc_bytes.load(std::memory_order_relaxed) - bytes0);
  const double peak_heap_mib =
      static_cast<double>(g_peak_live_bytes.load(std::memory_order_relaxed)) /
      (1 << 20);
  if (w.npb()) std::filesystem::remove_all(spill);

  rec.job_s = static_cast<double>(end_ns - job.start_ns) / 1e9;

  // -- output checks --
  std::uint64_t restarts = 0;
  std::int64_t entered = job.start_ns, first_send = end_ns, last_deliver = 0;
  for (int r = 0; r < w.n; ++r) {
    const RankProbe& rp = job.rank(r);
    const std::string who = "rank " + std::to_string(r) + ": ";
    if (!rp.returned) rec.fail(who + "rank function did not return");
    if (rp.errors) rec.fail(who + rp.first_error);
    if (w.npb() && rp.checksum != ref.checksum[static_cast<std::size_t>(r)]) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "checksum %.17g != reference %.17g",
                    rp.checksum, ref.checksum[static_cast<std::size_t>(r)]);
      rec.fail(who + buf);
    }
    restarts += rp.entries > 0 ? rp.entries - 1 : 0;
    entered = std::max(entered, rp.first_entry_ns);
    if (rp.first_send_ns >= 0) first_send = std::min(first_send, rp.first_send_ns);
    last_deliver = std::max(last_deliver, rp.last_deliver_ns);
    rec.restart_ms.insert(rec.restart_ms.end(), rp.restart_ms.begin(),
                          rp.restart_ms.end());
    rec.recovery_ms.insert(rec.recovery_ms.end(), rp.recovery_ms.begin(),
                           rp.recovery_ms.end());
  }
  // Channels between ranks that never restarted carry exactly the
  // reference's messages: nothing lost, nothing duplicated.
  for (int s = 0; s < w.n; ++s) {
    for (int d = 0; d < w.n; ++d) {
      if (job.rank(s).entries != 1 || job.rank(d).entries != 1) continue;
      const std::uint64_t want = ref.channel[job.channel(s, d)];
      if (job.rank(s).sent[static_cast<std::size_t>(d)] != want ||
          job.rank(d).delivered[static_cast<std::size_t>(s)] != want) {
        rec.fail("channel " + std::to_string(s) + "->" + std::to_string(d) +
                 " message count differs from the reference");
      }
    }
  }
  if (!res.fabric.accounted()) rec.fail("fabric packet accounting unbalanced");
  if (res.total.recoveries != kills || res.chaos_triggers_fired != kills ||
      restarts != kills) {
    rec.fail("expected " + std::to_string(kills) + " kill(s), saw " +
             std::to_string(res.chaos_triggers_fired) + " fired, " +
             std::to_string(res.total.recoveries) + " recoveries, " +
             std::to_string(restarts) + " restarts");
  }
  if (kills && rec.recovery_ms.size() != kills) {
    rec.fail("restarted incarnation never delivered a message");
  }
  if (traced) {
    const ft::TraceVerdict v = ft::validate_trace(sink.snapshot(), w.n);
    if (!v.ok()) rec.fail("validate_trace: " + v.violations.front());
    if (v.deliveries_checked == 0) rec.fail("validate_trace saw no deliveries");
  }
  if (!rec.ok) return rec;

  // -- measurements --
  rec.setup_s = static_cast<double>(entered - job.start_ns) / 1e9;
  rec.msgs_per_s = ratio(static_cast<double>(ref.total_msgs),
                         static_cast<double>(last_deliver - first_send) / 1e9);
  counter_stats(res, rec);
  if (hist == nullptr) return rec;
  const double sent = static_cast<double>(res.total.app_sent);
  if (!traced) {
    rec.layer["util.allocs_per_msg"] = ratio(allocs, sent);
    rec.layer["util.alloc_b_per_msg"] = ratio(alloc_b, sent);
    rec.layer["util.peak_heap_mib"] = peak_heap_mib;
    for (const RankProbe& rp : job.ranks()) {
      for (std::int64_t ns : rp.latency_ns) hist->latency.add(ns);
      hist->latency_samples += rp.latency_ns.size();
    }
    if (hist->latency.count() >= RunHistograms::kLatencyGroup) {
      hist->p50_us.push_back(hist->latency.quantile_ns(0.50) / 1e3);
      hist->p90_us.push_back(hist->latency.quantile_ns(0.90) / 1e3);
      hist->latency = Histogram();
    }
  } else {
    span_stats(w, job, res.total, *hist, rec);
    rec.spans.push_back({"job", job.start_ns, end_ns, 0, 0, -1, 0});
    for (const RankProbe& rp : job.ranks()) {
      rec.spans.insert(rec.spans.end(), rp.spans.begin(), rp.spans.end());
    }
  }
  return rec;
}

// ---- watchdog ---------------------------------------------------------------

std::atomic<int> g_attempted{0};
std::atomic<int> g_failed{0};

/// Turns an overrunning job into a reported failure: prints the result
/// object with correct=false and exits the process (a hung rank thread can
/// never be joined, so exiting is the only way to not hang).
class Watchdog {
 public:
  Watchdog() : thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Arms a deadline `seconds` from now; seconds <= 0 disarms.
  void arm(double seconds, std::string what) {
    std::scoped_lock lock(mu_);
    deadline_ = seconds > 0
                    ? now_ns() + static_cast<std::int64_t>(seconds * 1e9)
                    : 0;
    what_ = std::move(what);
  }

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100));
      if (!stop_ && deadline_ > 0 && now_ns() > deadline_) {
        std::fprintf(stderr, "perfbench: %s overran its deadline\n",
                     what_.c_str());
        std::printf(
            "{\"correct\": false, \"attempted\": %d, \"failed\": %d, "
            "\"metrics\": {}}\n",
            g_attempted.load() + 1, g_failed.load() + 1);
        std::fflush(stdout);
        std::_Exit(3);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::int64_t deadline_ = 0;
  std::string what_;
  std::thread thread_;  // last: loop() uses the members above
};

// ---- output -----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"job_s", "s"},          {"setup_s", "s"},
    {"msgs_per_s", "1/s"},   {"latency_us_p50", "us"},
    {"latency_us_p90", "us"}, {"ok_frac", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"npb.compute_share", "ratio"},
    {"mp.raw_ns_per_msg", "ns"},
    {"windar.overhead_ns_per_msg", "ns"},
    {"windar.send_us_p50", "us"},
    {"windar.send_us_p99", "us"},
    {"windar.recv_us_p50", "us"},
    {"windar.recv_us_p99", "us"},
    {"windar.track_ns_per_msg", "ns"},
    {"util.allocs_per_msg", "count"},
    {"util.alloc_b_per_msg", "B"},
    {"util.peak_heap_mib", "MiB"},
    {"util.recycled_per_msg", "count"},
    {"windar.piggyback_b_per_msg", "B"},
    {"net.wire_b_per_msg", "B"},
    {"net.packets_per_msg", "count"},
    {"windar.control_per_msg", "count"},
    {"windar.ckpt_call_us_p50", "us"},
    {"windar.ckpt_call_us_p99", "us"},
    {"windar.ckpt_stall_us", "us"},
    {"windar.ckpt_commit_us", "us"},
    {"windar.ckpt_kb_per_commit", "KiB"},
    {"windar.ckpt_delta_share", "ratio"},
    {"windar.ckpt_commit_ratio", "ratio"},
    {"windar.recovery_ms", "ms"},
    {"windar.restart_ms", "ms"},
    {"windar.resent_msgs", "count"},
    {"windar.rollback_broadcasts", "count"},
    {"windar.held_sends", "count"},
    {"windar.log_peak_kb", "KiB"},
    {"bench.trace_overhead", "ratio"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <std::size_t N>
std::string metrics_json(const MetricDef (&defs)[N],
                         std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    if (i) out += ", ";
    out += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
           json_number(values[defs[i].name]) + ", \"unit\": \"" +
           defs[i].unit + "\"}";
  }
  return out + "}";
}

bool write_spans(const std::filesystem::path& path,
                 const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("name,rank,incarnation,id,parent,start_ns,end_ns\n", f);
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%d,%u,%u,%u,%lld,%lld\n", s.name, s.rank,
                 s.incarnation, s.id, s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ---- main ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload lu|bt-fault|stream "
               "--seed N --seconds S --trace 0|1 --out DIR "
               "[--commit SHA] [--source-digest HEX]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--out") a.out = v;
      else if (k == "--commit") a.commit = v;
      else if (k == "--source-digest") a.source_digest = v;
      else usage(("unknown option " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.out.empty()) usage("--out is required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

void print_header(const Args& a, const Workload& w) {
  // Every knob is left at its JobConfig default.  With no WINDAR_* variable
  // set (checked at start-up) the library resolves the 0/-1 "use default"
  // values as documented in windar/runtime.h: fabric shards
  // min(4, cores) clamped to the endpoint count, the thread-per-rank exec
  // model, asynchronous checkpoint commit, a full anchor every 8 images.
  const ft::JobConfig d;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const int shards = std::min({4, static_cast<int>(cores), w.n});
  std::printf(
      "{\"header\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"commit\": \"%s\", \"source_digest\": \"%s\", "
      "\"nproc\": %ld, \"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"config\": {\"ranks\": %d, \"protocol\": \"TDI\", "
      "\"send_mode\": \"nonblocking\", \"fabric_shards\": %d, "
      "\"exec_model\": \"threads\", \"ckpt_mode\": \"async\", "
      "\"ckpt_anchor_k\": 8, \"restart_delay_ms\": %g, "
      "\"replay_burst\": %zu, \"holdback_cap\": %zu, "
      "\"link_base_ns\": %lld, \"link_per_byte_ns\": %lld, "
      "\"link_jitter_ns\": %lld, \"spill_dir\": %s}}}\n",
      w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace, a.commit.c_str(), a.source_digest.c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), cores, PERFBENCH_BUILD_TYPE, w.n, shards,
      d.restart_delay_ms, d.replay_burst, d.holdback_cap,
      static_cast<long long>(w.latency.base.count()),
      static_cast<long long>(w.latency.per_byte.count()),
      static_cast<long long>(w.latency.jitter.count()),
      w.npb() ? "true" : "false");
}

int run(const Args& args) {
  for (char** e = ::environ; *e; ++e) {
    if (std::strncmp(*e, "WINDAR_", 7) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: the benchmark "
                   "measures library defaults only\n",
                   *e);
      return 2;
    }
  }
  Workload w;
  if (!make_workload(args.workload, &w)) usage("unknown --workload");
  print_header(args, w);
  std::fflush(stdout);

  const std::filesystem::path out = args.out;
  const std::filesystem::path spill =
      out / ("spill-" + w.name + "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(out);

  std::mt19937_64 rng(args.seed * 0x9E3779B97F4A7C15ULL + w.name.size());
  Watchdog watchdog;
  const double job_deadline_s = 30;

  // Failure-free reference, outside every timed region.
  watchdog.arm(job_deadline_s, "reference run");
  const std::uint64_t ref_seed = rng();
  const Reference ref = run_reference(w, ref_seed);

  const auto plan_job = [&] {
    JobPlan p;
    p.seed = rng();
    if (w.kind == Kind::kBtFault) {
      // One event-keyed kill of a non-zero rank, landing between 30% and
      // 70% of its application deliveries.
      p.kill_rank = 1 + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                             w.n - 1));
      const std::uint64_t d = ref.delivered[static_cast<std::size_t>(p.kill_rank)];
      const std::uint64_t lo = d * 3 / 10, hi = d * 7 / 10;
      p.kill_nth = lo + rng() % (hi - lo + 1);
    }
    return p;
  };

  std::vector<JobRecord> records;
  std::vector<double> raw_s;
  std::vector<Span> first_spans;
  std::string first_failure;
  RunHistograms hist;
  const auto run_one = [&](bool traced, bool keep) {
    const JobPlan plan = plan_job();
    watchdog.arm(job_deadline_s, w.name + " job");
    JobRecord rec =
        run_logged(w, ref, plan, traced, spill, keep ? &hist : nullptr);
    if (!keep && rec.ok) return;
    g_attempted.fetch_add(1);
    if (!rec.ok) {
      g_failed.fetch_add(1);
      if (first_failure.empty()) first_failure = rec.why;
      std::fprintf(stderr, "perfbench: %s job failed: %s\n", w.name.c_str(),
                   rec.why.c_str());
    }
    if (traced && first_spans.empty()) first_spans = std::move(rec.spans);
    rec.spans.clear();
    records.push_back(std::move(rec));
  };
  const auto run_for = [&](double seconds, int min_jobs, bool traced) {
    const std::int64_t until = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (int i = 0; i < min_jobs || now_ns() < until; ++i) run_one(traced, true);
  };

  const std::int64_t t_start = now_ns();
  std::size_t untraced_end = 0;
  run_one(false, false);  // warm-up: lazy set-up, page faults, pools
  if (args.trace == 0) {
    run_for(args.seconds, 5, false);
    untraced_end = records.size();
  } else {
    // RawComm rung: the same job over mp::run_raw, timed.
    const std::int64_t raw_until =
        now_ns() + static_cast<std::int64_t>(args.seconds * 0.2 * 1e9);
    while (raw_s.size() < 3 || now_ns() < raw_until) {
      watchdog.arm(job_deadline_s, w.name + " raw job");
      raw_s.push_back(run_reference(w, rng()).wall_s);
    }
    run_for(args.seconds * 0.4, 3, false);
    untraced_end = records.size();
    run_for(args.seconds * 0.4, 3, true);
  }
  watchdog.arm(0, "");
  const double measured_s = static_cast<double>(now_ns() - t_start) / 1e9;

  const int attempted = g_attempted.load();
  const int failed = g_failed.load();
  std::map<std::string, double> values;
  std::vector<double> job_s, job_s_traced, setup_s, rate;
  std::vector<double> restart_ms, recovery_ms;
  std::map<std::string, std::vector<double>> layer;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JobRecord& r = records[i];
    if (!r.ok) continue;
    (i < untraced_end ? job_s : job_s_traced).push_back(r.job_s);
    if (i < untraced_end) {
      setup_s.push_back(r.setup_s);
      rate.push_back(r.msgs_per_s);
    }
    restart_ms.insert(restart_ms.end(), r.restart_ms.begin(),
                      r.restart_ms.end());
    recovery_ms.insert(recovery_ms.end(), r.recovery_ms.begin(),
                       r.recovery_ms.end());
    for (const auto& [k, v] : r.layer) layer[k].push_back(v);
  }

  std::vector<double> sorted_job_s = job_s;
  std::sort(sorted_job_s.begin(), sorted_job_s.end());
  const auto job_quantile = [&](double q) {
    return sorted_job_s.empty()
               ? 0.0
               : sorted_job_s[static_cast<std::size_t>(
                     q * static_cast<double>(sorted_job_s.size() - 1))];
  };
  std::fprintf(stderr,
               "perfbench: %s: %d jobs (%d failed) in %.2f s, job_s "
               "p10/p50/p90 %.4g/%.4g/%.4g; reference %llu msgs, %.3f s raw, "
               "checksum %.10g; %llu latency samples\n",
               w.name.c_str(), attempted, failed, measured_s,
               job_quantile(0.1), job_quantile(0.5), job_quantile(0.9),
               static_cast<unsigned long long>(ref.total_msgs), ref.wall_s,
               ref.checksum.front(),
               static_cast<unsigned long long>(hist.latency_samples));

  if (args.trace == 0) {
    values["job_s"] = median(job_s);
    values["setup_s"] = median(setup_s);
    values["msgs_per_s"] = median(rate);
    if (hist.p50_us.empty() && hist.latency.count() > 0) {  // short run
      hist.p50_us.push_back(hist.latency.quantile_ns(0.50) / 1e3);
      hist.p90_us.push_back(hist.latency.quantile_ns(0.90) / 1e3);
    }
    values["latency_us_p50"] = median(hist.p50_us);
    values["latency_us_p90"] = median(hist.p90_us);
    values["ok_frac"] =
        ratio(static_cast<double>(attempted - failed), attempted);
  } else {
    for (const auto& [k, v] : layer) values[k] = median(v);
    values["windar.send_us_p50"] = hist.send.quantile_ns(0.50) / 1e3;
    values["windar.send_us_p99"] = hist.send.quantile_ns(0.99) / 1e3;
    values["windar.recv_us_p50"] = hist.recv.quantile_ns(0.50) / 1e3;
    values["windar.recv_us_p99"] = hist.recv.quantile_ns(0.99) / 1e3;
    values["windar.ckpt_call_us_p50"] = hist.checkpoint.quantile_ns(0.50) / 1e3;
    values["windar.ckpt_call_us_p99"] = hist.checkpoint.quantile_ns(0.99) / 1e3;
    values["windar.restart_ms"] = median(restart_ms);
    values["windar.recovery_ms"] = median(recovery_ms);
    const double msgs = static_cast<double>(ref.total_msgs);
    values["mp.raw_ns_per_msg"] = median(raw_s) * 1e9 / msgs;
    values["windar.overhead_ns_per_msg"] =
        (median(job_s) - median(raw_s)) * 1e9 / msgs;
    values["bench.trace_overhead"] =
        ratio(median(job_s_traced), median(job_s)) - 1;
    const std::filesystem::path spans_path =
        out / ("spans-" + w.name + ".csv");
    if (!write_spans(spans_path, first_spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: spans of the first traced job in %s\n",
                 spans_path.c_str());
  }

  const bool correct = failed == 0;
  const std::string metrics = args.trace == 0
                                  ? metrics_json(kEndToEnd, values)
                                  : metrics_json(kPerLayer, values);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "perfbench: first failure: %s\n",
                 first_failure.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
