// Figure 4 — Sun RPC vs SOAP-bin: overall time (marshal + transmit +
// unmarshal) for (a) integer arrays and (b) nested structs over a 100 Mbps
// link.
//
// Expected shape (paper): SOAP-bin is close to Sun RPC for arrays; Sun RPC
// wins on nested structs (up to ~5.4x in the paper's worst case), the gap
// being due mostly to SOAP-bin's HTTP transport and per-message overheads.
#include <cstdio>

#include "bench_util.h"
#include "common/clock.h"
#include "net/link.h"
#include "rpc/sunrpc.h"
#include "rpc/xdr.h"

namespace sbq::bench {
namespace {

using pbio::Arity;
using pbio::FieldDesc;
using pbio::FormatDesc;
using pbio::TypeKind;
using pbio::Value;

// XDR encoding of a Value driven by its PBIO format — Sun RPC's canonical
// representation of the same workload.
void xdr_put_value(const Value& v, const FormatDesc& format, rpc::XdrEncoder& enc) {
  for (const FieldDesc& f : format.fields) {
    const Value& field = v.field(f.name);
    if (f.arity != Arity::kScalar) {
      enc.put_array_header(static_cast<std::uint32_t>(field.array_size()));
      const auto put = [&](const Value& e) {
        if (f.kind == TypeKind::kStruct) {
          xdr_put_value(e, *f.struct_format, enc);
        } else if (f.kind == TypeKind::kFloat64) {
          enc.put_f64(e.as_f64());
        } else {
          enc.put_i32(static_cast<std::int32_t>(e.as_i64()));
        }
      };
      field.visit_array([&](auto elems) {
        for (const auto& e : elems) put(e);
      });
      continue;
    }
    switch (f.kind) {
      case TypeKind::kStruct: xdr_put_value(field, *f.struct_format, enc); break;
      case TypeKind::kString: enc.put_string(field.as_string()); break;
      case TypeKind::kFloat64: enc.put_f64(field.as_f64()); break;
      case TypeKind::kFloat32: enc.put_f32(static_cast<float>(field.as_f64())); break;
      default: enc.put_i32(static_cast<std::int32_t>(field.as_i64()));
    }
  }
}

// Decodes as the PBIO plan's Value sink does: each record is one field
// vector in format order and each scalar array one contiguous vector, so
// both sides of the comparison build the same Values the same way.
Value xdr_get_value(const FormatDesc& format, rpc::XdrDecoder& dec) {
  std::vector<Value::NamedValue> fields(format.fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const FieldDesc& f = format.fields[i];
    fields[i].name = f.name;
    Value& out = fields[i].value;
    if (f.arity != Arity::kScalar) {
      const std::uint32_t n = dec.get_array_header();
      if (f.kind == TypeKind::kStruct) {
        std::vector<Value> records;
        for (std::uint32_t e = 0; e < n; ++e) {
          records.push_back(xdr_get_value(*f.struct_format, dec));
        }
        out = Value{std::move(records)};
      } else if (f.kind == TypeKind::kFloat64) {
        Value::F64Array elems(n);
        for (double& e : elems) e = dec.get_f64();
        out = Value{std::move(elems)};
      } else {
        Value::I64Array elems(n);
        for (std::int64_t& e : elems) e = dec.get_i32();
        out = Value{std::move(elems)};
      }
      continue;
    }
    switch (f.kind) {
      case TypeKind::kStruct: out = xdr_get_value(*f.struct_format, dec); break;
      case TypeKind::kString: out = Value{dec.get_string()}; break;
      case TypeKind::kFloat64: out = Value{dec.get_f64()}; break;
      case TypeKind::kFloat32: out = Value{static_cast<double>(dec.get_f32())}; break;
      default: out = Value{static_cast<std::int64_t>(dec.get_i32())};
    }
  }
  return Value{std::move(fields)};
}

/// Sun RPC echo round trip; returns total µs (CPU measured, transfer
/// simulated). Sun RPC frames records directly over TCP — lower fixed
/// per-message cost than SOAP-bin's HTTP POST.
std::uint64_t sunrpc_round_trip(const Value& v, const pbio::FormatPtr& format,
                                const net::LinkModel& link, std::uint64_t now_us) {
  rpc::RpcServer server(0x20000099, 1);
  server.register_procedure(1, [&](BytesView args) {
    // Server: decode + re-encode (echo), both real CPU.
    rpc::XdrDecoder dec(args);
    const Value decoded = xdr_get_value(*format, dec);
    rpc::XdrEncoder enc;
    xdr_put_value(decoded, *format, enc);
    return enc.take();
  });

  Stopwatch cpu;
  rpc::XdrEncoder args;
  xdr_put_value(v, *format, args);
  const Bytes request = args.take();

  // RPC call header ≈ 40 bytes + 4-byte record mark.
  const std::size_t request_wire = request.size() + 44;
  double total_us = static_cast<double>(link.transfer_time_us(request_wire, now_us));

  // Build the actual call message so handle_call measures real server work.
  rpc::XdrEncoder call;
  call.put_u32(1);           // xid
  call.put_u32(0);           // CALL
  call.put_u32(2);           // rpcvers
  call.put_u32(0x20000099);  // prog
  call.put_u32(1);           // vers
  call.put_u32(1);           // proc
  call.put_u32(0); call.put_u32(0);  // cred AUTH_NONE
  call.put_u32(0); call.put_u32(0);  // verf AUTH_NONE
  call.put_opaque_fixed(BytesView{request});
  const Bytes reply = server.handle_call(BytesView{call.buffer().bytes()});

  total_us += static_cast<double>(link.transfer_time_us(reply.size() + 4, now_us));

  // Client decodes results (skip the 6-word reply header + verf).
  rpc::XdrDecoder dec(BytesView{reply});
  for (int i = 0; i < 3; ++i) dec.get_u32();
  dec.get_u32(); dec.get_u32();  // verf
  dec.get_u32();                 // accept_stat
  (void)xdr_get_value(*format, dec);

  // CPU-era calibration, matching what SimHarness applies to SOAP-bin.
  total_us += cpu.elapsed_us() * cpu_scale();
  return static_cast<std::uint64_t>(total_us);
}

std::uint64_t soapbin_round_trip(SimHarness& harness, const Value& v) {
  return harness.timed_call("echo", v);
}

void run_arrays() {
  banner("Figure 4(a): Sun RPC vs SOAP-bin — integer arrays",
         "overall marshal+transmit+unmarshal time over a 100 Mbps link, µs");
  TablePrinter table({"array_bytes", "sunrpc_us", "soapbin_us", "ratio"});

  net::LinkModel rpc_link([&] {
    net::LinkConfig c = net::lan_100mbps();
    c.per_message_us = 20;  // raw TCP framing, no HTTP
    return c;
  }());

  for (std::size_t bytes : {1024u, 10240u, 102400u, 1048576u}) {
    const Value v = make_int_array(bytes);
    SimHarness harness = make_echo_harness("echo", int_array_format(),
                                           core::WireFormat::kBinary,
                                           net::lan_100mbps());
    // Soup transacted over connection-per-request HTTP: charge a TCP
    // handshake (2 one-way latencies) per call. Sun RPC keeps its
    // connection open.
    harness.transport->set_per_call_setup_us(2 * net::lan_100mbps().latency_us);
    harness.timed_call("echo", v);  // warm format caches (paper discards cold runs)

    std::uint64_t rpc_total = 0;
    std::uint64_t bin_total = 0;
    const int iterations = 5;
    for (int i = 0; i < iterations; ++i) {
      rpc_total += sunrpc_round_trip(v, int_array_format(), rpc_link, 0);
      bin_total += soapbin_round_trip(harness, v);
    }
    const double rpc_us = static_cast<double>(rpc_total) / iterations;
    const double bin_us = static_cast<double>(bin_total) / iterations;
    table.row({TablePrinter::bytes(bytes), TablePrinter::num(rpc_us),
               TablePrinter::num(bin_us), TablePrinter::num(bin_us / rpc_us, 2)});
  }
}

void run_structs() {
  banner("Figure 4(b): Sun RPC vs SOAP-bin — nested structs",
         "binary tree of structs, depth as shown; same metric as (a)");
  TablePrinter table({"depth", "leaves", "sunrpc_us", "soapbin_us", "ratio"});

  net::LinkModel rpc_link([&] {
    net::LinkConfig c = net::lan_100mbps();
    c.per_message_us = 20;
    return c;
  }());

  for (int depth : {2, 4, 6, 8, 10}) {
    const pbio::FormatPtr format = nested_struct_format(depth);
    const Value v = make_nested_struct(depth);
    SimHarness harness = make_echo_harness("echo", format,
                                           core::WireFormat::kBinary,
                                           net::lan_100mbps());
    harness.transport->set_per_call_setup_us(2 * net::lan_100mbps().latency_us);
    harness.timed_call("echo", v);

    std::uint64_t rpc_total = 0;
    std::uint64_t bin_total = 0;
    const int iterations = 5;
    for (int i = 0; i < iterations; ++i) {
      rpc_total += sunrpc_round_trip(v, format, rpc_link, 0);
      bin_total += soapbin_round_trip(harness, v);
    }
    const double rpc_us = static_cast<double>(rpc_total) / iterations;
    const double bin_us = static_cast<double>(bin_total) / iterations;
    table.row({std::to_string(depth), std::to_string(1 << depth),
               TablePrinter::num(rpc_us), TablePrinter::num(bin_us),
               TablePrinter::num(bin_us / rpc_us, 2)});
  }
  std::printf(
      "\nShape check: SOAP-bin ~ Sun RPC for arrays; Sun RPC ahead on nested\n"
      "structs (paper: up to ~5.4x worst case, dominated by HTTP overheads).\n");
}

}  // namespace
}  // namespace sbq::bench

int main() {
  sbq::bench::run_arrays();
  sbq::bench::run_structs();
  return 0;
}
