// Span tracing for the benchmark's traced run.
//
// A span records one call across a layer boundary: its name, start, end,
// the span that was open on the same thread when it began (its parent), and
// the id of the served request it belongs to (0 when none). Spans are kept in
// per-thread buffers, so recording takes no lock and no shared atomic; the
// buffers are merged and written out once the traced measurement has ended.
//
// The decorators below wrap the library's public extension interfaces and
// forward every virtual, so installing them changes when work is timed and
// nothing about what is computed:
//
//   TracedGemmBackend / TracedQuantizedGemmBackend   util::GemmBackend
//   TracedDataset                                    data::Dataset
//   TracedExitPolicy                                 core::ExitPolicy

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/exit_policy.h"
#include "data/dataset.h"
#include "util/gemm.h"

namespace perfbench {

std::int64_t now_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = no enclosing span on this thread
  std::uint64_t request = 0;  ///< served request id, or dataset sample index
  const char* name = "";      ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  // GEMM spans only: dense FLOPs and the A operand's element / nonzero count.
  double flops = 0.0;
  double a_elements = 0.0;
  double a_nonzeros = 0.0;
};

/// Process-wide span store. Threads register a buffer on first use; merge()
/// must only run while no thread is recording (after the fleet has been
/// drained and the engine has returned).
class Tracer {
 public:
  static Tracer& instance();

  /// Open a span on the calling thread.
  void begin(const char* name, std::uint64_t request);
  /// Close the innermost open span of the calling thread.
  void end(double flops = 0.0, double a_elements = 0.0, double a_nonzeros = 0.0);

  [[nodiscard]] std::vector<Span> merge() const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::uint64_t next_seq = 1;
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< indices into spans
  };
  Buffer& local();

  mutable std::mutex mu_;  // guards buffers_ (registration, merge)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op when `on` is false (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(bool on, const char* name, std::uint64_t request = 0) : on_(on) {
    if (on_) Tracer::instance().begin(name, request);
  }
  ~ScopedSpan() {
    if (on_) Tracer::instance().end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

// ------------------------------------------------------------- decorators

class TracedGemmBackend : public dtsnn::util::GemmBackend {
 public:
  explicit TracedGemmBackend(const dtsnn::util::GemmBackend& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] dtsnn::util::GemmIdentityTier identity_tier() const override {
    return inner_.identity_tier();
  }
  [[nodiscard]] bool available() const override { return inner_.available(); }
  [[nodiscard]] bool routes_by_density() const override {
    return inner_.routes_by_density();
  }
  /// A routing inner backend picks another backend per call; that one is
  /// returned wrapped too, so routed calls are still timed.
  [[nodiscard]] const GemmBackend& route(dtsnn::util::GemmOp op, double a_density,
                                         std::size_t m, std::size_t k,
                                         std::size_t n) const override;

 protected:
  void do_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) const override;
  void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override;
  void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override;

 private:
  const dtsnn::util::GemmBackend& inner_;
  mutable std::mutex routed_mu_;  // guards routed_
  mutable std::map<const GemmBackend*, std::unique_ptr<TracedGemmBackend>> routed_;
};

class TracedQuantizedGemmBackend final : public dtsnn::util::QuantizedGemmBackend {
 public:
  explicit TracedQuantizedGemmBackend(const dtsnn::util::QuantizedGemmBackend& inner)
      : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] bool available() const override { return inner_.available(); }
  [[nodiscard]] bool routes_by_density() const override {
    return inner_.routes_by_density();
  }
  [[nodiscard]] int weight_bits() const override { return inner_.weight_bits(); }
  [[nodiscard]] bool prefers_lut() const override { return inner_.prefers_lut(); }

 protected:
  void do_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) const override;
  void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override;
  void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override;
  void do_qgemm(const float* a, const dtsnn::util::QuantizedMatrix& q, float* c,
                std::size_t m, std::size_t k, std::size_t n) const override;

 private:
  const dtsnn::util::QuantizedGemmBackend& inner_;
};

/// The traced twin of `inner`: quantized backends keep their quantized type
/// (layers select the quantized path by downcasting the context's backend).
std::unique_ptr<dtsnn::util::GemmBackend> make_traced_backend(
    const dtsnn::util::GemmBackend& inner);

class TracedDataset final : public dtsnn::data::Dataset {
 public:
  explicit TracedDataset(const dtsnn::data::Dataset& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::size_t num_classes() const override { return inner_.num_classes(); }
  [[nodiscard]] dtsnn::snn::Shape frame_shape() const override {
    return inner_.frame_shape();
  }
  [[nodiscard]] int label(std::size_t sample) const override { return inner_.label(sample); }
  [[nodiscard]] double difficulty(std::size_t sample) const override {
    return inner_.difficulty(sample);
  }
  [[nodiscard]] std::size_t native_frames() const override {
    return inner_.native_frames();
  }
  void write_frame(std::size_t sample, std::size_t t,
                   std::span<float> dst) const override;
  void prefetch(std::span<const std::size_t> samples) const override;
  [[nodiscard]] dtsnn::data::DatasetStorageStats storage_stats() const override {
    return inner_.storage_stats();
  }

 private:
  const dtsnn::data::Dataset& inner_;
};

class TracedExitPolicy final : public dtsnn::core::ExitPolicy {
 public:
  explicit TracedExitPolicy(const dtsnn::core::ExitPolicy& inner) : inner_(inner) {}

  [[nodiscard]] bool should_exit(std::span<const float> cum_logits) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const dtsnn::core::ExitPolicy& inner_;
};

// ------------------------------------------------------------ aggregation

/// Totals of one span name over a set of spans.
struct SpanTotals {
  std::size_t count = 0;
  double busy_s = 0.0;  ///< summed durations
  double self_s = 0.0;  ///< summed durations minus the children they cover
  double flops = 0.0;
  double a_elements = 0.0;
  double a_nonzeros = 0.0;
  std::vector<double> durations_us;
};

/// Per-name totals over the spans that start inside [from_ns, to_ns).
std::map<std::string, SpanTotals> summarize(const std::vector<Span>& spans,
                                            std::int64_t from_ns, std::int64_t to_ns);

/// Write every span, one per line (id parent request thread name start end,
/// times in ns since the first span), followed by the per-name self-time
/// table. Returns false when the file could not be written.
bool write_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
