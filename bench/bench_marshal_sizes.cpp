// Figure 5 companion ("Fig. ??" in the paper text) — marshalling /
// unmarshalling costs and resulting sizes for: native↔PBIO conversion, XML
// compression, and XML↔PBIO conversion, for arrays and nested structs.
//
// Expected shape (paper): XML parameters ≈4-5x the PBIO message for arrays
// and up to ~9x for deeply nested structs; compressed XML lands near (or
// below) PBIO size; PBIO encode/decode time is small next to transmission.
#include <cstdio>

#include "bench_util.h"
#include "common/clock.h"
#include "compress/lzss.h"
#include "pbio/value_codec.h"
#include "soap/codec.h"

namespace sbq::bench {
namespace {

using pbio::Value;

struct CostRow {
  std::size_t pbio_bytes = 0;
  std::size_t xml_bytes = 0;
  std::size_t lz_bytes = 0;
  double pbio_encode_us = 0;
  double pbio_decode_us = 0;
  double xml_encode_us = 0;
  double xml_parse_us = 0;
  double compress_us = 0;
  double decompress_us = 0;
};

CostRow measure(const Value& v, const pbio::FormatPtr& format, int iterations) {
  CostRow row;
  BufferChain pbio_wire;
  std::string xml_wire;
  Bytes lz_wire;
  for (int i = 0; i < iterations; ++i) {
    {
      Stopwatch sw;
      pbio_wire = pbio::encode_value_message_chain(v, *format);
      row.pbio_encode_us += sw.elapsed_us();
    }
    {
      Stopwatch sw;
      (void)decode_value_chain(pbio_wire, *format);
      row.pbio_decode_us += sw.elapsed_us();
    }
    {
      Stopwatch sw;
      xml_wire = soap::value_to_xml(v, *format, "params");
      row.xml_encode_us += sw.elapsed_us();
    }
    {
      Stopwatch sw;
      (void)soap::value_from_xml(xml_wire, *format);
      row.xml_parse_us += sw.elapsed_us();
    }
    {
      Stopwatch sw;
      lz_wire = lz::compress_string(xml_wire);
      row.compress_us += sw.elapsed_us();
    }
    {
      Stopwatch sw;
      (void)lz::decompress_string(BytesView{lz_wire});
      row.decompress_us += sw.elapsed_us();
    }
  }
  row.pbio_bytes = pbio_wire.size();
  row.xml_bytes = xml_wire.size();
  row.lz_bytes = lz_wire.size();
  const double n = iterations;
  row.pbio_encode_us /= n;
  row.pbio_decode_us /= n;
  row.xml_encode_us /= n;
  row.xml_parse_us /= n;
  row.compress_us /= n;
  row.decompress_us /= n;
  return row;
}

void print_rows(const std::string& label, const std::vector<std::string>& keys,
                const std::vector<CostRow>& rows) {
  banner("Marshalling costs and sizes — " + label,
         "per-message sizes and average CPU times (µs) on this host");
  TablePrinter table({"workload", "pbio_sz", "xml_sz", "lz_sz", "xml/pbio",
                      "pbio_enc", "pbio_dec", "xml_enc", "xml_parse", "lz_c",
                      "lz_d"},
                     11);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CostRow& r = rows[i];
    table.row({keys[i], TablePrinter::bytes(r.pbio_bytes),
               TablePrinter::bytes(r.xml_bytes), TablePrinter::bytes(r.lz_bytes),
               TablePrinter::num(static_cast<double>(r.xml_bytes) /
                                     static_cast<double>(r.pbio_bytes),
                                 2),
               TablePrinter::num(r.pbio_encode_us), TablePrinter::num(r.pbio_decode_us),
               TablePrinter::num(r.xml_encode_us), TablePrinter::num(r.xml_parse_us),
               TablePrinter::num(r.compress_us), TablePrinter::num(r.decompress_us)});
  }
}

}  // namespace
}  // namespace sbq::bench

int main() {
  using namespace sbq::bench;

  {
    std::vector<std::string> keys;
    std::vector<CostRow> rows;
    for (std::size_t bytes : {1024u, 10240u, 102400u, 1048576u}) {
      keys.push_back(TablePrinter::bytes(bytes));
      rows.push_back(measure(make_int_array(bytes), int_array_format(),
                             bytes > 100000 ? 3 : 10));
    }
    print_rows("integer arrays", keys, rows);
  }
  {
    std::vector<std::string> keys;
    std::vector<CostRow> rows;
    for (int depth : {2, 4, 6, 8, 10}) {
      keys.push_back("depth " + std::to_string(depth));
      rows.push_back(measure(make_nested_struct(depth), nested_struct_format(depth),
                             depth >= 9 ? 3 : 10));
    }
    print_rows("nested structs", keys, rows);
  }
  std::printf(
      "\nShape check: xml/pbio ratio ~4-5x for arrays, larger for deep structs\n"
      "(paper: up to ~9x); compressed XML is near or below PBIO size.\n");
  return 0;
}
