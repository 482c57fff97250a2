#include "perfbench/bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// --- spans ------------------------------------------------------------------

struct Tracer::Buffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

namespace {

std::mutex g_buffers_mu;
// Owned here so buffers outlive the actor threads that filled them.
std::vector<std::unique_ptr<Tracer::Buffer>> g_buffers;
thread_local Tracer::Buffer* t_buffer = nullptr;
thread_local std::uint64_t t_current = 0;

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer* Tracer::local() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
  }
  return t_buffer;
}

void Tracer::add(SpanRecord span) {
  Buffer* b = local();
  span.thread = b->thread;
  b->spans.push_back(span);
}

std::vector<SpanRecord> Tracer::take() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> out;
  for (auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
    b->spans.shrink_to_fit();
  }
  return out;
}

Span::Span(const char* name, std::uint64_t group, std::uint64_t parent) {
  Tracer& tracer = Tracer::get();
  if (!tracer.on()) return;
  rec_.id = tracer.next_id();
  rec_.parent = parent == kInherit ? t_current : parent;
  rec_.group = group;
  rec_.name = name;
  saved_ = t_current;
  t_current = rec_.id;
  cpu_start_s_ = thread_cpu_s();
  rec_.start_s = host_now_s();
}

Span::~Span() {
  if (rec_.id == 0) return;
  rec_.end_s = host_now_s();
  rec_.cpu_s = thread_cpu_s() - cpu_start_s_;
  t_current = saved_;
  Tracer::get().add(rec_);
}

namespace {

std::string layer_of(const char* name) {
  const std::string s(name);
  const auto dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

}  // namespace

LayerTimes layer_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  std::unordered_map<std::uint64_t, double> child_cpu;
  for (const auto& s : spans) {
    auto parent = by_id.find(s.parent);
    if (parent != by_id.end() && parent->second->thread == s.thread) child_cpu[s.parent] += s.cpu_s;
  }
  LayerTimes out;
  for (const auto& s : spans) {
    auto child = child_cpu.find(s.id);
    const double self = s.cpu_s - (child == child_cpu.end() ? 0.0 : child->second);
    out.self_cpu_s[layer_of(s.name)] += std::max(0.0, self);
    out.cpu_s[s.name] += s.cpu_s;
    out.durations_us[s.name].push_back((s.end_s - s.start_s) * 1e6);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<SpanRecord>& spans,
                 std::size_t max_spans) {
  std::vector<const SpanRecord*> order;
  order.reserve(spans.size());
  for (const auto& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const SpanRecord* a, const SpanRecord* b) { return a->id < b->id; });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "# id\tparent\tgroup\tthread\tname\tstart_s\tend_s\tcpu_s (%zu of %zu spans)\n",
               std::min(max_spans, order.size()), order.size());
  for (std::size_t i = 0; i < order.size() && i < max_spans; ++i) {
    const SpanRecord& s = *order[i];
    std::fprintf(f, "%llu\t%llu\t%llu\t%u\t%s\t%.9f\t%.9f\t%.9f\n",
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group), s.thread, s.name, s.start_s, s.end_s,
                 s.cpu_s);
  }
  std::fclose(f);
}

// --- host counters ----------------------------------------------------------

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

HostUsage HostUsage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  HostUsage u;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- JSON -------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::ostringstream out;
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out << buf;
    } else {
      out << c;
    }
  }
  out << '"';
  return out.str();
}

}  // namespace perfbench
