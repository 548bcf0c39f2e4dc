// C++ stub generation — the back half of the WSDL compiler.
//
// The paper's prototype "generates the client-side and server-side stubs as
// well as a file with support functions and a header". This generator emits
// the same artifacts for C++: a header declaring one accessor per compiled
// PBIO format, typed client-stub wrappers over the dynamic runtime, and a
// server skeleton with one virtual method per operation; the support file
// builds the formats. Parameters are pbio::Values.
// The `wsdlc` tool (tools/wsdlc.cpp) is the command-line front end.
#pragma once

#include <string>

#include "wsdl/wsdl.h"

namespace sbq::wsdl {

/// Generated compilation artifacts.
struct StubFiles {
  std::string header;       // <service>_stubs.h
  std::string support;      // <service>_stubs.cpp (format construction)
};

/// Emits C++ stub code for `service`. Deterministic output (stable field
/// and operation order), suitable for golden-file tests.
StubFiles generate_stubs(const ServiceDesc& service);

/// C++ identifier sanitation: anything outside [A-Za-z0-9_] becomes '_',
/// leading digits are prefixed.
std::string sanitize_identifier(std::string_view name);

}  // namespace sbq::wsdl
