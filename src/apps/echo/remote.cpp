#include "apps/echo/remote.h"

#include "common/error.h"
#include "pbio/encode.h"
#include "pbio/value_codec.h"

namespace sbq::echo {

using pbio::Value;

pbio::FormatPtr bridge_event_format() {
  static const pbio::FormatPtr format = pbio::FormatBuilder("bridge_event")
                                            .add_string("channel")
                                            .add_var_array("message",
                                                           pbio::TypeKind::kChar)
                                            .build();
  return format;
}

pbio::FormatPtr bridge_ack_format() {
  static const pbio::FormatPtr format =
      pbio::FormatBuilder("bridge_ack")
          .add_scalar("delivered", pbio::TypeKind::kInt32)
          .build();
  return format;
}

wsdl::ServiceDesc bridge_service_desc() {
  wsdl::ServiceDesc svc;
  svc.name = "EventBridge";
  svc.target_namespace = "urn:sbq:echo";
  svc.operations.push_back(wsdl::OperationDesc{"submit_event", bridge_event_format(),
                                               bridge_ack_format()});
  return svc;
}

void host_event_bridge(core::ServiceRuntime& runtime,
                       std::shared_ptr<EventDomain> domain) {
  if (!domain) throw RpcError("host_event_bridge: null domain");
  core::ServiceRuntime* runtime_ptr = &runtime;
  runtime.register_operation(
      "submit_event", bridge_event_format(), bridge_ack_format(),
      [domain, runtime_ptr](const Value& params) {
        const std::string& channel_name = params.field("channel").as_string();
        auto channel = domain->find(channel_name);
        if (!channel) {
          throw RpcError("bridge: no channel named '" + channel_name + "'");
        }

        // The payload is a full PBIO message; resolve its format through
        // the shared format server (cached after the first event).
        const BufferChain message =
            BufferChain::borrowing(as_bytes(params.field("message").as_string()));
        ChainReader reader(message);
        const pbio::WireHeader header = pbio::read_header(reader);
        const pbio::FormatPtr format =
            runtime_ptr->format_cache().resolve(header.format_id);
        Value payload = pbio::decode_value_payload(reader, header.payload_length,
                                                   header.sender_order, *format);

        channel->submit(Event{format, std::move(payload)});
        return Value::record(
            {{"delivered", static_cast<std::int64_t>(channel->sink_count())}});
      });
}

int submit_remote(core::ClientStub& bridge_client, const std::string& channel,
                  const Event& event) {
  if (!event.format) throw RpcError("submit_remote: event without format");
  // First-send registration of the inner event format (cached after that).
  bridge_client.format_cache().announce(event.format);
  const Bytes message =
      pbio::encode_value_message_chain(event.value, *event.format).coalesce();
  const Value ack = bridge_client.call(
      "submit_event",
      Value::record({{"channel", channel},
                     {"message", to_string(BytesView{message})}}));
  return static_cast<int>(ack.field("delivered").as_i64());
}

std::size_t forward_channel(EventChannel& local, core::ClientStub& bridge_client,
                            std::string remote_channel) {
  return local.subscribe(
      [&bridge_client, remote_channel = std::move(remote_channel)](const Event& e) {
        submit_remote(bridge_client, remote_channel, e);
        return true;
      });
}

}  // namespace sbq::echo
