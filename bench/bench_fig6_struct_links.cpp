// Figure 6 — SOAP-bin vs compressed XML vs direct XML send, for nested
// structs over (a) the 100 Mbps LAN and (b) the ADSL link.
//
// Same methodology as Figure 5 (bench_fig5_array_links.cpp), with the
// business-data workload: a binary tree of structs whose XML document size
// grows exponentially with depth. Expected shape (paper): the conversion
// penalty is "more pronounced" for structs on the fast link; on ADSL the
// binary encoding wins over direct XML; compression is fastest.
#include <cstdio>

#include "bench_util.h"
#include "common/clock.h"
#include "compress/lzss.h"
#include "pbio/value_codec.h"
#include "soap/codec.h"

namespace sbq::bench {
namespace {

using pbio::Value;

void run_link(const std::string& label, net::LinkConfig config) {
  banner("Figure 6 (" + label + "): nested structs — SOAP-bin vs compression vs XML",
         "total time µs = conversion CPU (real) + transfer (simulated)");
  TablePrinter table(
      {"depth", "xml_direct", "xml_lz", "soapbin", "xml_sz", "bin_sz"}, 13);
  net::LinkModel link(config);

  for (int depth : {2, 4, 6, 8, 10}) {
    const pbio::FormatPtr format = nested_struct_format(depth);
    const Value v = make_nested_struct(depth);
    const std::string xml = soap::value_to_xml(v, *format, "params");

    const int iterations = depth >= 9 ? 3 : 8;
    double xml_direct_us = 0;
    double xml_lz_us = 0;
    double soapbin_us = 0;
    std::size_t bin_bytes = 0;

    for (int i = 0; i < iterations; ++i) {
      xml_direct_us += static_cast<double>(link.transfer_time_us(xml.size(), 0));
      // CPU times carry the 2004-hardware calibration (cpu_scale).
      {
        Stopwatch sw;
        const Bytes lz = lz::compress_string(xml);
        double t = sw.elapsed_us() * cpu_scale();
        t += static_cast<double>(link.transfer_time_us(lz.size(), 0));
        Stopwatch sw2;
        (void)lz::decompress_string(BytesView{lz});
        xml_lz_us += t + sw2.elapsed_us() * cpu_scale();
      }
      {
        Stopwatch sw;
        const Value decoded = soap::value_from_xml(xml, *format);
        const BufferChain bin = pbio::encode_value_message_chain(decoded, *format);
        double t = sw.elapsed_us() * cpu_scale();
        bin_bytes = bin.size();
        t += static_cast<double>(link.transfer_time_us(bin.size(), 0));
        Stopwatch sw2;
        const Value back = decode_value_chain(bin, *format);
        (void)soap::value_to_xml(back, *format, "params");
        soapbin_us += t + sw2.elapsed_us() * cpu_scale();
      }
    }
    table.row({std::to_string(depth), TablePrinter::num(xml_direct_us / iterations),
               TablePrinter::num(xml_lz_us / iterations),
               TablePrinter::num(soapbin_us / iterations),
               TablePrinter::bytes(xml.size()), TablePrinter::bytes(bin_bytes)});
  }
}

}  // namespace
}  // namespace sbq::bench

int main() {
  sbq::bench::run_link("a: 100Mbps LAN", sbq::net::lan_100mbps());
  sbq::bench::run_link("b: ADSL ~1Mbps", sbq::net::adsl_1mbps());
  std::printf(
      "\nShape check: on the LAN, XML->PBIO conversion costs more than just\n"
      "sending XML (worse for structs than arrays); on ADSL conversion pays\n"
      "off; compressed XML is the fastest series everywhere.\n");
  return 0;
}
