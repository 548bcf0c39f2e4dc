#include "kernels.h"

#include <algorithm>

#include "common/buffer_chain.h"
#include "core/message.h"
#include "pbio/value_codec.h"
#include "soap/envelope.h"
#include "trace.h"

namespace livebench {

using sbq::BufferChain;
using sbq::pbio::Value;

namespace {

// Keeps a result observable so the compiler cannot drop the work.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Median per-invocation time. Invocations are batched so each timed sample
// spans at least 20 µs, well above the clock's own cost.
template <typename Fn>
double time_us(Fn&& fn, double seconds) {
  for (int i = 0; i < 3; ++i) fn();
  const std::uint64_t probe_start = now_ns();
  fn();
  const std::uint64_t one_ns = std::max<std::uint64_t>(1, now_ns() - probe_start);
  const std::uint64_t batch = std::max<std::uint64_t>(1, 20'000 / one_ns);

  std::vector<double> samples;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const std::uint64_t start = now_ns();
    for (std::uint64_t i = 0; i < batch; ++i) fn();
    samples.push_back(static_cast<double>(now_ns() - start) / 1000.0 /
                      static_cast<double>(batch));
  } while (now_ns() < deadline || samples.size() < 5);
  return median(std::move(samples));
}

}  // namespace

std::vector<KernelTiming> run_kernels(const Workload& workload, double seconds_each) {
  const sbq::wsdl::ServiceDesc service = make_service(workload.spec);
  const sbq::pbio::FormatDesc& format = *service.required_operation(kOperation).input;
  const Value& payload = workload.requests[0];

  // Workloads without a quality file still time the quality layer, with a
  // file that always selects the full type (bin_small's setting).
  WorkloadSpec quality_spec = workload.spec;
  if (quality_spec.quality_file.empty()) {
    quality_spec.quality_file = "attribute rtt_us\n0 inf - " + format.name + "\n";
  }
  const auto quality = compile_workload_quality(quality_spec, service);
  const sbq::qos::MessageType& type = quality->select();
  const Value reduced = quality->apply(payload, type);

  const BufferChain message = sbq::pbio::encode_value_message_chain(payload, format);
  const sbq::Bytes flat = message.coalesce();
  const std::string xml = sbq::soap::build_request(kOperation, payload, format);

  sbq::core::BinEnvelope envelope;
  envelope.operation = kOperation;
  envelope.message_type = format.name;
  envelope.timestamp_us = 1;
  envelope.reported_rtt_us = 1.0;
  const auto envelope_body = [&] {
    BufferChain pbio_message;
    pbio_message.append_shared(message);
    return sbq::core::encode_bin_message(envelope, std::move(pbio_message));
  };
  const BufferChain body = envelope_body();

  std::vector<KernelTiming> out;
  const auto run = [&](const char* name, auto&& fn) {
    out.push_back({name, time_us(fn, seconds_each)});
  };
  run("pbio.encode_us",
      [&] { keep(sbq::pbio::encode_value_message_chain(payload, format)); });
  run("pbio.decode_us",
      [&] { keep(sbq::pbio::decode_value_message(sbq::BytesView{flat}, format)); });
  run("pbio.project_us", [&] { keep(sbq::pbio::project_value(reduced, format)); });
  run("qos.select_us", [&] { keep(quality->select()); });
  run("qos.apply_us", [&] { keep(quality->apply(payload, type)); });
  run("soap.build_us",
      [&] { keep(sbq::soap::build_request(kOperation, payload, format)); });
  run("soap.parse_us", [&] {
    const sbq::soap::ParsedEnvelope parsed = sbq::soap::parse_envelope(xml);
    keep(sbq::soap::decode_body(parsed, format));
  });
  run("core.envelope_encode_us", [&] { keep(envelope_body()); });
  run("core.envelope_decode_us", [&] { keep(sbq::core::decode_bin_message(body)); });
  return out;
}

}  // namespace livebench
