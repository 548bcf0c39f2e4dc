#include "stack.h"

#include <stdexcept>

#include "core/message.h"
#include "net/sim_clock.h"

namespace livebench {

using sbq::pbio::Value;

namespace {

// The slot of the connection whose request the current worker thread is
// serving; the operation handler reads it to record its own span.
thread_local ServerSlot* current_slot = nullptr;

}  // namespace

LiveStack::LiveStack(const Workload& workload, const std::atomic<bool>& tracing)
    : tracing_(tracing) {
  for (std::size_t i = 0; i < kConnections; ++i) {
    connections_[i].client_id = "livebench-" + std::to_string(i);
  }

  const sbq::wsdl::ServiceDesc service = make_service(workload.spec);
  const sbq::wsdl::OperationDesc& op = service.required_operation(kOperation);
  auto format_server = std::make_shared<sbq::pbio::FormatServer>();
  auto clock = std::make_shared<sbq::net::SteadyTimeSource>();

  runtime_ = std::make_unique<sbq::core::ServiceRuntime>(format_server, clock);
  runtime_->register_operation(
      kOperation, op.input, op.output, [](const Value& params) {
        ServerSlot* slot = current_slot;
        if (slot == nullptr) return params;
        const std::uint64_t start = now_ns();
        Value result = params;
        slot->op_start.store(start, std::memory_order_relaxed);
        slot->op_end.store(now_ns(), std::memory_order_relaxed);
        return result;
      });
  if (!workload.spec.quality_file.empty()) {
    const WorkloadSpec spec = workload.spec;
    runtime_->set_quality_factory(
        [spec, service] { return compile_workload_quality(spec, service); });
  }

  sbq::http::ServerOptions options;
  options.front = sbq::http::FrontMode::kEvent;
  options.runtimes = 1;
  options.workers = 2;
  server_ = std::make_unique<sbq::http::Server>(
      0, [this](const sbq::http::Request& request) { return serve(request); }, options);

  for (std::size_t i = 0; i < kConnections; ++i) {
    Connection& c = connections_[i];
    c.stream = std::make_unique<CountingStream>(
        sbq::net::TcpStream::connect("127.0.0.1", server_->port()));
    c.transport = std::make_unique<TracedTransport>(*c.stream, tracing_);
    c.stub = std::make_unique<sbq::core::ClientStub>(*c.transport, workload.spec.wire,
                                                     service, format_server, clock);
    c.stub->set_client_id(c.client_id);
    if (auto quality = compile_workload_quality(workload.spec, service)) {
      c.stub->set_quality_manager(std::move(quality));
    }
    if (!(c.stub->call(kOperation, workload.requests[0]) == workload.expected[0])) {
      throw std::runtime_error("set-up call on " + c.client_id +
                               " returned a wrong response");
    }
  }
}

LiveStack::~LiveStack() {
  for (Connection& c : connections_) {
    c.stub.reset();
    c.transport.reset();
    if (c.stream) c.stream->close();
    c.stream.reset();
  }
  if (server_) server_->shutdown();
}

ServerSlot* LiveStack::slot_for(const sbq::http::Request& request) {
  const auto id = request.headers.get(sbq::core::kHeaderClientId);
  if (!id) return nullptr;
  for (std::size_t i = 0; i < kConnections; ++i) {
    if (*id == connections_[i].client_id) return &slots_[i];
  }
  return nullptr;
}

sbq::http::Response LiveStack::serve(const sbq::http::Request& request) {
  if (!tracing_.load(std::memory_order_relaxed)) return runtime_->handle(request);
  ServerSlot* slot = slot_for(request);
  const std::uint64_t start = now_ns();
  current_slot = slot;
  sbq::http::Response response = runtime_->handle(request);
  current_slot = nullptr;
  const std::uint64_t end = now_ns();
  if (slot != nullptr) {
    slot->handle_start.store(start, std::memory_order_relaxed);
    slot->handle_end.store(end, std::memory_order_relaxed);
    slot->seq.fetch_add(1, std::memory_order_release);
  }
  return response;
}

}  // namespace livebench
