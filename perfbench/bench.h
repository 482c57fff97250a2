// Shared harness of the runtime benchmark: options, in-memory spans, host
// counters, percentiles and the result printed as the run's last line.
//
// Every workload drives the runtime only through its public entry points and
// runs the same shape (see measure.cc): set up several times (the median is
// `setup_s`), then measure rounds of identical work until the time budget is
// spent. Virtual-time metrics come from the first rounds only, whose content
// is fixed by the seed, so they are bit-identical for one seed however many
// rounds the host manages.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Trimmed sizes for the self-test: same code paths, a fraction of the work.
  bool trimmed = false;
  // Directory the traced run writes its span file into.
  std::string out_dir = ".";
};

// CPU seconds (user + system) of the calling thread / of the whole process.
// In a virtual machine neither counts time the host stole from the vCPU.
double thread_cpu_s();
double process_cpu_s();

inline double host_now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wall and process CPU time of a stretch of work.
struct Stopwatch {
  double wall0 = host_now_s();
  double cpu0 = process_cpu_s();
  double wall_s() const { return host_now_s() - wall0; }
  double cpu_s() const { return process_cpu_s() - cpu0; }
};

// --- statistics -------------------------------------------------------------

// Nearest-rank percentile, q in (0, 100]; 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

// --- spans ------------------------------------------------------------------

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t group = 0;   // shared by the spans of one round, step or job
  const char* name = "";     // "<layer>.<call>"; always a string literal
  std::uint32_t thread = 0;  // recording thread (actors are OS threads)
  double start_s = 0.0;      // host wall clock
  double end_s = 0.0;
  double cpu_s = 0.0;        // CPU time of the recording thread inside the span
};

// Records spans in memory while enabled. Each thread appends to a buffer of
// its own (actors are OS threads), so recording takes no lock after a
// thread's first span. Not for use while a recording phase is running on
// other threads: enable/disable/take between phases only.
class Tracer {
 public:
  static Tracer& get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { on_.store(on, std::memory_order_relaxed); }
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void add(SpanRecord span);
  // Moves every recorded span out, in no particular order.
  std::vector<SpanRecord> take();

  struct Buffer;

 private:
  Buffer* local();
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
};

// RAII span around one call into the program. The parent is the innermost
// span open on this thread unless given explicitly (an actor's first span
// names the span of the run_spmd call that spawned it).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t group = 0, std::uint64_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return rec_.id; }

  static constexpr std::uint64_t kInherit = ~0ull;

 private:
  SpanRecord rec_;
  std::uint64_t saved_ = 0;
  double cpu_start_s_ = 0.0;
};

// A layer's self time is the CPU time its spans' threads spent inside them,
// less that of child spans on the same thread. CPU rather than wall time:
// an actor blocked inside a call is off the CPU while other actors run, and
// wall time would bill their work to it as well.
struct LayerTimes {
  std::map<std::string, double> self_cpu_s;  // per layer
  std::map<std::string, double> cpu_s;       // per span name: summed CPU time
  std::map<std::string, std::vector<double>> durations_us;  // per span name, wall
};
LayerTimes layer_times(const std::vector<SpanRecord>& spans);
// Writes one tab-separated line per span, in id order, at most `max_spans`.
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 std::size_t max_spans);

// --- host counters ----------------------------------------------------------

struct HostUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;  // voluntary + involuntary, all threads
  static HostUsage now();
  HostUsage operator-(const HostUsage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, ctx_switches - o.ctx_switches};
  }
};
double peak_rss_mib();

// --- result -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;  // why `correct` is false
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> sizes;  // workload sizes, for the metadata line

  void gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      gate_failures.push_back(what);
    }
  }
};

std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
