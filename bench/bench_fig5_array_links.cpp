// Figure 5 — SOAP-bin vs compressed XML vs direct XML send, for integer
// arrays over (a) the 100 Mbps LAN and (b) the ADSL link.
//
// The scenario is §IV-B.f: the application's data is available as XML, so
// SOAP-bin must convert XML→PBIO before sending and PBIO→XML after
// receiving (compatibility-mode conversions). Series:
//   xml_direct : send the XML document as-is
//   xml_lz     : compress XML with Lempel-Ziv, send, decompress
//   soapbin    : convert XML→PBIO, send binary, convert PBIO→XML
//
// Expected shape (paper): on the fast link direct XML can beat SOAP-bin
// (conversion costs dominate); on ADSL SOAP-bin clearly wins over direct
// XML (it is ~4x smaller), and compressed XML is fastest of all. The §I
// headline — ~15x transmission-time improvement at 1 MB — is printed at
// the end (pure transfer, binary vs XML).
#include <cstdio>

#include "bench_util.h"
#include "common/clock.h"
#include "compress/lzss.h"
#include "pbio/value_codec.h"
#include "soap/codec.h"

namespace sbq::bench {
namespace {

using pbio::Value;

struct SeriesPoint {
  double xml_direct_us;
  double xml_lz_us;
  double soapbin_us;
  std::size_t xml_bytes;
  std::size_t bin_bytes;
};

SeriesPoint measure(const Value& v, const pbio::FormatPtr& format,
                    const net::LinkModel& link, int iterations) {
  // The "application data" is an XML document.
  const std::string xml = soap::value_to_xml(v, *format, "params");

  SeriesPoint p{};
  p.xml_bytes = xml.size();

  for (int i = 0; i < iterations; ++i) {
    // Direct XML: no CPU beyond what the link carries.
    p.xml_direct_us += static_cast<double>(link.transfer_time_us(xml.size(), 0));

    // Compressed XML: compress, send, decompress. CPU times carry the
    // 2004-hardware calibration (cpu_scale, bench_util.h).
    {
      Stopwatch sw;
      const Bytes lz = lz::compress_string(xml);
      double t = sw.elapsed_us() * cpu_scale();
      t += static_cast<double>(link.transfer_time_us(lz.size(), 0));
      Stopwatch sw2;
      (void)lz::decompress_string(BytesView{lz});
      t += sw2.elapsed_us() * cpu_scale();
      p.xml_lz_us += t;
    }

    // SOAP-bin: XML→PBIO, send binary, PBIO→XML.
    {
      Stopwatch sw;
      const Value decoded = soap::value_from_xml(xml, *format);
      const BufferChain bin = pbio::encode_value_message_chain(decoded, *format);
      double t = sw.elapsed_us() * cpu_scale();
      p.bin_bytes = bin.size();
      t += static_cast<double>(link.transfer_time_us(bin.size(), 0));
      Stopwatch sw2;
      const Value back = decode_value_chain(bin, *format);
      (void)soap::value_to_xml(back, *format, "params");
      t += sw2.elapsed_us() * cpu_scale();
      p.soapbin_us += t;
    }
  }
  p.xml_direct_us /= iterations;
  p.xml_lz_us /= iterations;
  p.soapbin_us /= iterations;
  return p;
}

void run_link(const std::string& label, net::LinkConfig config) {
  banner("Figure 5 (" + label + "): arrays — SOAP-bin vs compression vs direct XML",
         "total time µs = conversion CPU (real) + transfer (simulated)");
  TablePrinter table(
      {"array_bytes", "xml_direct", "xml_lz", "soapbin", "xml_sz", "bin_sz"}, 13);
  net::LinkModel link(config);
  for (std::size_t bytes : {1024u, 10240u, 102400u, 1048576u}) {
    const SeriesPoint p = measure(make_int_array(bytes), int_array_format(), link,
                                  bytes > 100000 ? 3 : 8);
    table.row({TablePrinter::bytes(bytes), TablePrinter::num(p.xml_direct_us),
               TablePrinter::num(p.xml_lz_us), TablePrinter::num(p.soapbin_us),
               TablePrinter::bytes(p.xml_bytes), TablePrinter::bytes(p.bin_bytes)});
  }
}

void headline_15x() {
  // §I: "message transmission times are improved by a factor of about 15
  // for 1MByte message sizes" — pure transfer time, binary vs XML, on the
  // slow link where transmission dominates.
  const Value v = make_int_array(1048576);
  // The baseline is what standard SOAP actually puts on the wire: typed,
  // Section-5-annotated XML.
  const std::string xml = soap::value_to_xml(v, *int_array_format(), "params",
                                             soap::XmlStyle{.typed = true});
  const BufferChain bin = pbio::encode_value_message_chain(v, *int_array_format());
  net::LinkModel link(net::adsl_1mbps());
  const double xml_us = static_cast<double>(link.transfer_time_us(xml.size(), 0));
  const double bin_us = static_cast<double>(link.transfer_time_us(bin.size(), 0));
  std::printf(
      "\nHeadline (§I): 1MB parameter transmission, ADSL: XML %.0f ms vs "
      "SOAP-bin %.0f ms -> %.1fx improvement (paper: ~15x; the exact factor\n"
      "tracks the XML/PBIO size ratio of the workload).\n",
      xml_us / 1000.0, bin_us / 1000.0, xml_us / bin_us);
}

}  // namespace
}  // namespace sbq::bench

int main() {
  sbq::bench::run_link("a: 100Mbps LAN", sbq::net::lan_100mbps());
  sbq::bench::run_link("b: ADSL ~1Mbps", sbq::net::adsl_1mbps());
  sbq::bench::headline_15x();
  return 0;
}
