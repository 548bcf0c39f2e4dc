// End-to-end WSDL-compiler validation: the build runs `wsdlc` on
// tests/data/imaging.wsdl, compiles the generated stubs, and this test
// exercises them — format accessors, the typed client wrapper, and the
// server skeleton — against the real runtime.
#include <gtest/gtest.h>

#include "ImagingService_stubs.h"
#include "core/transports.h"
#include "pbio/plan.h"
#include "pbio/value_codec.h"
#include "support/wire.h"

namespace {

using sbq::pbio::Value;
using namespace stubs_ImagingService;

TEST(GeneratedStubs, FormatCanonicals) {
  EXPECT_EQ(format_roi()->canonical(), "roi{x:i32,y:i32,w:i32,h:i32}");
  EXPECT_EQ(format_frame()->canonical(),
            "frame{camera:string,width:i32,height:i32,pixels:char[],"
            "histogram:u32[8]}");
}

TEST(GeneratedStubs, NativeRecordRoundTrip) {
  // A record of a generated format, nested struct included, round-trips
  // the PBIO wire.
  const Value request = Value::record(
      {{"camera", "east-dome"},
       {"region", Value::record({{"x", 10}, {"y", 20}, {"w", 320}, {"h", 240}})},
       {"exposure_ms", 12.5}});
  const sbq::Bytes wire = sbq::test::value_wire(request, *format_frame_request());
  sbq::pbio::PlanCache plans;
  const Value back = sbq::test::decode_wire(sbq::BytesView{wire}, format_frame_request(),
                                            format_frame_request(), plans);
  EXPECT_EQ(back, request);
  EXPECT_EQ(back.field("region").field("w").as_i64(), 320);
  EXPECT_DOUBLE_EQ(back.field("exposure_ms").as_f64(), 12.5);
}

/// The application's implementation of the generated skeleton.
class ImagingImpl final : public ImagingServiceSkeleton {
 public:
  Value capture(const Value& params) override {
    const Value& region = params.field("region");
    const auto w = region.field("w").as_i64();
    const auto h = region.field("h").as_i64();
    Value histogram = Value::empty_array();
    for (int bin = 0; bin < 8; ++bin) {
      histogram.push_back(static_cast<std::uint64_t>(bin * 10));
    }
    return Value::record(
        {{"camera", params.field("camera").as_string()},
         {"width", w},
         {"height", h},
         {"pixels", std::string(static_cast<std::size_t>(w * h), '\x42')},
         {"histogram", std::move(histogram)}});
  }
};

TEST(GeneratedStubs, SkeletonAndClientEndToEnd) {
  auto format_server = std::make_shared<sbq::pbio::FormatServer>();
  auto clock = std::make_shared<sbq::net::SteadyTimeSource>();
  sbq::core::ServiceRuntime runtime(format_server, clock);

  ImagingImpl impl;
  impl.register_with(runtime);

  sbq::core::LoopbackTransport transport(runtime);
  sbq::wsdl::ServiceDesc svc;
  svc.name = "ImagingService";
  svc.operations.push_back(sbq::wsdl::OperationDesc{"capture", format_frame_request(),
                                                    format_frame()});
  sbq::core::ClientStub stub(transport, sbq::core::WireFormat::kBinary, svc,
                             format_server, clock);
  ImagingServiceClient client(stub);

  const Value result = client.capture(Value::record(
      {{"camera", "east-dome"},
       {"region", Value::record({{"x", 0}, {"y", 0}, {"w", 16}, {"h", 8}})},
       {"exposure_ms", 5.0}}));
  EXPECT_EQ(result.field("camera").as_string(), "east-dome");
  EXPECT_EQ(result.field("pixels").as_string().size(), 128u);
  EXPECT_EQ(result.field("histogram").array_size(), 8u);
}

}  // namespace
