// Microbenchmarks (google-benchmark) — raw codec throughput underlying every
// figure: PBIO encode/decode, XML encode/parse, XDR, LZSS, and the
// XML↔binary conversion handlers.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "compress/lzss.h"
#include "pbio/value_codec.h"
#include "rpc/xdr.h"
#include "soap/codec.h"
#include "soap/envelope.h"

namespace sbq::bench {
namespace {

// The live stack's encode: header plus payload as a BufferChain, in one walk.
void BM_PbioEncodeArray(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const pbio::Value v = make_int_array(bytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pbio::encode_value_message_chain(v, *int_array_format()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PbioEncodeArray)->Arg(1024)->Arg(102400)->Arg(1048576);

// The live stack's decode: a ChainReader over the received message, header
// first, then the payload (what ServiceRuntime and ClientStub run).
void BM_PbioDecodeArray(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const pbio::Value v = make_int_array(bytes);
  const pbio::FormatPtr format = int_array_format();
  const BufferChain message = pbio::encode_value_message_chain(v, *format);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_value_chain(message, *format));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(message.size()));
}
BENCHMARK(BM_PbioDecodeArray)->Arg(1024)->Arg(102400)->Arg(1048576);

void BM_XmlEncodeArray(benchmark::State& state) {
  const pbio::Value v = make_int_array(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(soap::value_to_xml(v, *int_array_format(), "params"));
  }
}
BENCHMARK(BM_XmlEncodeArray)->Arg(1024)->Arg(102400);

void BM_XmlParseArray(benchmark::State& state) {
  const pbio::Value v = make_int_array(static_cast<std::size_t>(state.range(0)));
  const std::string xml = soap::value_to_xml(v, *int_array_format(), "params");
  for (auto _ : state) {
    benchmark::DoNotOptimize(soap::value_from_xml(xml, *int_array_format()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParseArray)->Arg(1024)->Arg(102400);

void BM_PbioEncodeStruct(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const pbio::Value v = make_nested_struct(depth);
  const pbio::FormatPtr f = nested_struct_format(depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pbio::encode_value_message_chain(v, *f));
  }
}
BENCHMARK(BM_PbioEncodeStruct)->Arg(4)->Arg(8)->Arg(10);

void BM_XmlEncodeStruct(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const pbio::Value v = make_nested_struct(depth);
  const pbio::FormatPtr f = nested_struct_format(depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(soap::value_to_xml(v, *f, "params"));
  }
}
BENCHMARK(BM_XmlEncodeStruct)->Arg(4)->Arg(8)->Arg(10);

// The livebench xml_struct message: a depth-6 binary tree of records (127
// records, 64 leaves) in a typed SOAP request envelope.
void BM_SoapEncodeStruct(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const pbio::Value v = make_nested_struct(depth);
  const pbio::FormatPtr f = nested_struct_format(depth);
  for (auto _ : state) {
    benchmark::DoNotOptimize(soap::build_request("echo", v, *f));
  }
}
BENCHMARK(BM_SoapEncodeStruct)->Arg(6);

void BM_SoapDecodeStruct(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const pbio::FormatPtr f = nested_struct_format(depth);
  const std::string xml = soap::build_request("echo", make_nested_struct(depth), *f);
  for (auto _ : state) {
    const soap::ParsedEnvelope parsed = soap::parse_envelope(xml);
    benchmark::DoNotOptimize(soap::decode_body(parsed, *f));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_SoapDecodeStruct)->Arg(6);

void BM_XdrEncodeArray(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0)) / 4;
  for (auto _ : state) {
    rpc::XdrEncoder enc;
    enc.put_array_header(static_cast<std::uint32_t>(count));
    for (std::size_t i = 0; i < count; ++i) {
      enc.put_i32(static_cast<std::int32_t>(i));
    }
    benchmark::DoNotOptimize(enc.take());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_XdrEncodeArray)->Arg(1024)->Arg(102400)->Arg(1048576);

void BM_LzssCompressXml(benchmark::State& state) {
  const pbio::Value v = make_int_array(static_cast<std::size_t>(state.range(0)));
  const std::string xml = soap::value_to_xml(v, *int_array_format(), "params");
  for (auto _ : state) {
    benchmark::DoNotOptimize(lz::compress_string(xml));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml.size()));
}
BENCHMARK(BM_LzssCompressXml)->Arg(1024)->Arg(102400);

void BM_LzssDecompressXml(benchmark::State& state) {
  const pbio::Value v = make_int_array(static_cast<std::size_t>(state.range(0)));
  const std::string xml = soap::value_to_xml(v, *int_array_format(), "params");
  const Bytes packed = lz::compress_string(xml);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lz::decompress(BytesView{packed}));
  }
}
BENCHMARK(BM_LzssDecompressXml)->Arg(1024)->Arg(102400);

void BM_ConversionHandlerXmlToBin(benchmark::State& state) {
  const pbio::Value v = make_int_array(static_cast<std::size_t>(state.range(0)));
  const std::string xml = soap::value_to_xml(v, *int_array_format(), "params");
  for (auto _ : state) {
    const pbio::Value decoded = soap::value_from_xml(xml, *int_array_format());
    benchmark::DoNotOptimize(
        pbio::encode_value_message_chain(decoded, *int_array_format()));
  }
}
BENCHMARK(BM_ConversionHandlerXmlToBin)->Arg(1024)->Arg(102400);

}  // namespace
}  // namespace sbq::bench

BENCHMARK_MAIN();
