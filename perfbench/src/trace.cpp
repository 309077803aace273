#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace du = dtsnn::util;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer->spans.reserve(1 << 14);
  }
  return *buffer;
}

void Tracer::begin(const char* name, std::uint64_t request) {
  Buffer& b = local();
  Span s;
  // Thread index in the high bits keeps ids unique without shared state.
  s.id = (static_cast<std::uint64_t>(b.thread) << 40) | b.next_seq++;
  s.parent = b.open.empty() ? 0 : b.spans[b.open.back()].id;
  s.request = request;
  s.name = name;
  s.thread = b.thread;
  b.open.push_back(b.spans.size());
  b.spans.push_back(s);
  b.spans.back().start_ns = now_ns();
}

void Tracer::end(double flops, double a_elements, double a_nonzeros) {
  const std::int64_t t = now_ns();
  Buffer& b = local();
  Span& s = b.spans[b.open.back()];
  b.open.pop_back();
  s.end_ns = t;
  s.flops = flops;
  s.a_elements = a_elements;
  s.a_nonzeros = a_nonzeros;
}

std::vector<Span> Tracer::merge() const {
  std::lock_guard lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->spans.begin(), b->spans.end());
  std::sort(all.begin(), all.end(),
            [](const Span& x, const Span& y) { return x.start_ns < y.start_ns; });
  return all;
}

// ------------------------------------------------------------- decorators

namespace {

double count_nonzeros(const float* a, std::size_t n) {
  std::size_t nz = 0;
  for (std::size_t i = 0; i < n; ++i) nz += a[i] != 0.0f;
  return static_cast<double>(nz);
}

/// Time one GEMM-shaped call. A's density is counted before the span opens,
/// so the scan is tracing overhead, not GEMM time.
template <typename Fn>
void timed_gemm(const char* name, const float* a, std::size_t m, std::size_t k,
                std::size_t n, Fn&& fn) {
  const double elements = static_cast<double>(m) * static_cast<double>(k);
  const double nonzeros = count_nonzeros(a, m * k);
  Tracer& tracer = Tracer::instance();
  tracer.begin(name, 0);
  fn();
  tracer.end(2.0 * elements * static_cast<double>(n), elements, nonzeros);
}

}  // namespace

const du::GemmBackend& TracedGemmBackend::route(du::GemmOp op, double a_density,
                                                std::size_t m, std::size_t k,
                                                std::size_t n) const {
  const GemmBackend& chosen = inner_.route(op, a_density, m, k, n);
  if (&chosen == &inner_) return *this;
  std::lock_guard lock(routed_mu_);
  auto& wrapped = routed_[&chosen];
  if (!wrapped) wrapped = std::make_unique<TracedGemmBackend>(chosen);
  return *wrapped;
}

// The decorators' kernels are only entered with nonzero shapes and must
// accumulate into C, which is exactly the public wrappers' behaviour with
// accumulate = true.
void TracedGemmBackend::do_gemm(const float* a, const float* b, float* c, std::size_t m,
                                std::size_t k, std::size_t n) const {
  timed_gemm("util.gemm.nn", a, m, k, n, [&] { inner_.gemm(a, b, c, m, k, n, true); });
}
void TracedGemmBackend::do_gemm_at(const float* a, const float* b, float* c,
                                   std::size_t m, std::size_t k, std::size_t n) const {
  timed_gemm("util.gemm.at", a, m, k, n, [&] { inner_.gemm_at(a, b, c, m, k, n, true); });
}
void TracedGemmBackend::do_gemm_bt(const float* a, const float* b, float* c,
                                   std::size_t m, std::size_t k, std::size_t n) const {
  timed_gemm("util.gemm.bt", a, m, k, n, [&] { inner_.gemm_bt(a, b, c, m, k, n, true); });
}

void TracedQuantizedGemmBackend::do_gemm(const float* a, const float* b, float* c,
                                         std::size_t m, std::size_t k,
                                         std::size_t n) const {
  timed_gemm("util.gemm.nn", a, m, k, n, [&] { inner_.gemm(a, b, c, m, k, n, true); });
}
void TracedQuantizedGemmBackend::do_gemm_at(const float* a, const float* b, float* c,
                                            std::size_t m, std::size_t k,
                                            std::size_t n) const {
  timed_gemm("util.gemm.at", a, m, k, n, [&] { inner_.gemm_at(a, b, c, m, k, n, true); });
}
void TracedQuantizedGemmBackend::do_gemm_bt(const float* a, const float* b, float* c,
                                            std::size_t m, std::size_t k,
                                            std::size_t n) const {
  timed_gemm("util.gemm.bt", a, m, k, n, [&] { inner_.gemm_bt(a, b, c, m, k, n, true); });
}
void TracedQuantizedGemmBackend::do_qgemm(const float* a, const du::QuantizedMatrix& q,
                                          float* c, std::size_t m, std::size_t k,
                                          std::size_t n) const {
  timed_gemm("util.gemm.quant", a, m, k, n, [&] { inner_.qgemm(a, q, c, m, k, n, true); });
}

std::unique_ptr<du::GemmBackend> make_traced_backend(const du::GemmBackend& inner) {
  if (const du::QuantizedGemmBackend* q = du::as_quantized_backend(&inner)) {
    return std::make_unique<TracedQuantizedGemmBackend>(*q);
  }
  return std::make_unique<TracedGemmBackend>(inner);
}

void TracedDataset::write_frame(std::size_t sample, std::size_t t,
                                std::span<float> dst) const {
  ScopedSpan span(true, "data.write_frame", sample);
  inner_.write_frame(sample, t, dst);
}

void TracedDataset::prefetch(std::span<const std::size_t> samples) const {
  ScopedSpan span(true, "data.prefetch");
  inner_.prefetch(samples);
}

bool TracedExitPolicy::should_exit(std::span<const float> cum_logits) const {
  ScopedSpan span(true, "core.exit_check");
  return inner_.should_exit(cum_logits);
}

// ------------------------------------------------------------ aggregation

std::map<std::string, SpanTotals> summarize(const std::vector<Span>& spans,
                                            std::int64_t from_ns, std::int64_t to_ns) {
  std::unordered_map<std::uint64_t, double> child_s;
  for (const Span& s : spans) {
    if (s.parent != 0) child_s[s.parent] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
    SpanTotals& t = out[s.name];
    const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const auto it = child_s.find(s.id);
    ++t.count;
    t.busy_s += d;
    t.self_s += d - (it == child_s.end() ? 0.0 : it->second);
    t.flops += s.flops;
    t.a_elements += s.a_elements;
    t.a_nonzeros += s.a_nonzeros;
    t.durations_us.push_back(d * 1e6);
  }
  return out;
}

bool write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "# id parent request thread name start_ns end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu %llu %llu %u %s %lld %lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread, s.name,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  std::fprintf(f, "# name count busy_s self_s\n");
  for (const auto& [name, t] : summarize(spans, INT64_MIN, INT64_MAX)) {
    std::fprintf(f, "# %s %zu %.6f %.6f\n", name.c_str(), t.count, t.busy_s, t.self_s);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
