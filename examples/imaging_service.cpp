// Imaging service — the paper's Skyserver-like application with SOAP-binQ
// continuous quality management (§IV-C.1).
//
// A telescope image server hands out 640x480 PPM frames with a server-side
// transform (edge detection). A quality file tells the server to drop to
// 320x240 when the client-reported RTT crosses the policy boundary; the
// client keeps estimating RTT from echoed timestamps and the exponential
// average. Cross-traffic is injected on a simulated 100 Mbps link so the
// adaptation is visible in seconds, deterministically.
//
// Run: ./imaging_service
#include <cstdio>

#include "apps/image/codec.h"
#include "apps/image/ops.h"
#include "apps/image/synth.h"
#include "apps/image/transforms.h"
#include "core/client.h"
#include "core/service.h"
#include "core/transports.h"
#include "qos/manager.h"
#include "wsdl/wsdl.h"

int main() {
  using namespace sbq;
  using pbio::Value;

  // --- server side -----------------------------------------------------
  auto format_server = std::make_shared<pbio::FormatServer>();
  auto clock = std::make_shared<net::SimClock>();
  core::ServiceRuntime runtime(format_server, clock);

  // The archive: one deterministic star field per "filename". Transforms
  // are resolved by name through the registry ("edge", "scale:2", ...).
  auto transforms = std::make_shared<image::TransformRegistry>();
  runtime.register_operation(
      "getImage", image::image_request_format(), image::image_format(),
      [transforms](const Value& params) {
        image::StarFieldConfig config;
        // Derive the frame from the filename so different files differ.
        for (const char c : params.field("filename").as_string()) {
          config.seed = config.seed * 31 + static_cast<unsigned char>(c);
        }
        const image::Image frame = transforms->apply(
            params.field("transform").as_string(), image::synth_star_field(config));
        return image::image_to_value(frame, *image::image_format());
      });

  // The quality file: full frames while RTT < 150 ms, half resolution above.
  auto quality = std::make_shared<qos::QualityManager>(
      qos::QualityFile::parse("attribute rtt_us\n"
                              "0 150000 - image\n"
                              "150000 inf - half_image\n"),
      /*switch_threshold=*/2);
  quality->register_message_type("image", image::image_format());
  quality->register_message_type("half_image", image::half_image_format(),
                                 image::resize_quality_handler);
  runtime.set_quality_manager(quality);

  // --- the link: 100 Mbps with a congestion episode ---------------------
  net::LinkModel link(net::lan_100mbps());
  net::CrossTrafficSchedule traffic;
  traffic.add_phase(4'000'000, 11'000'000, 0.9);  // seconds 4-11: iperf blast
  link.set_cross_traffic(traffic);
  core::SimLinkTransport transport(runtime, link, clock);
  transport.set_charge_server_cpu(false);

  // --- client side -------------------------------------------------------
  wsdl::ServiceDesc service;
  service.name = "ImageService";
  service.operations.push_back(wsdl::OperationDesc{
      "getImage", image::image_request_format(), image::image_format()});
  core::ClientStub client(transport, core::WireFormat::kBinary, service,
                          format_server, clock);

  std::printf("req  t(s)   response  type        resolution  rtt_est(ms)\n");
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t wall = static_cast<std::uint64_t>(i) * 1'000'000;
    if (clock->now_us() < wall) clock->set_us(wall);

    const std::uint64_t start = clock->now_us();
    const Value result = client.call(
        "getImage", Value::record({{"filename", "m31_frame_" + std::to_string(i)},
                                   {"transform", "edge"}}));
    const image::Image frame = image::image_from_value(result);
    std::printf("%-4d %-6.1f %6.1f ms  %-11s %dx%-9d %.1f\n", i,
                static_cast<double>(start) / 1e6,
                static_cast<double>(clock->now_us() - start) / 1000.0,
                client.last_response_type().c_str(), frame.width(), frame.height(),
                client.rtt_estimate_us() / 1000.0);
  }

  std::printf(
      "\nThe server switched to 320x240 during the congestion episode and\n"
      "recovered to 640x480 afterwards — %llu quality switches total.\n",
      static_cast<unsigned long long>(quality->switch_count()));
  return 0;
}
