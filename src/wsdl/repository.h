// Service repository — the paper's UDDI-style registry.
//
// §III-B.b: "we foresee the designer providing a quality file along with
// the WSDL file, through UDDI or a similar WSDL repository. This would let
// the user directly access the service, without knowledge of the actual
// message types used in data transmission."
//
// ServiceRepository stores (WSDL document, optional quality file) pairs by
// service name. It can be used directly in-process, or hosted as a SOAP
// service itself via core::host_repository() (core/registry_host.h) — the
// registry's own operations (publish / lookup / list) ride the same SOAP-bin
// stack, so a client can bootstrap everything about a service, message
// types included, from one lookup.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "pbio/format.h"
#include "qos/quality_file.h"
#include "wsdl/wsdl.h"

namespace sbq::wsdl {

/// One published service: its interface plus its quality policy.
struct PublishedService {
  std::string name;
  std::string wsdl_xml;
  std::string quality_text;  // empty when the service has no quality file
};

/// In-memory registry. Thread-safe.
class ServiceRepository {
 public:
  /// Publishes (or republishes) a service. The WSDL is validated by
  /// compiling it; a non-empty quality file is validated by parsing it.
  /// Throws ParseError/QosError on invalid documents.
  void publish(const std::string& name, const std::string& wsdl_xml,
               const std::string& quality_text = {});

  /// Looks up a published service; empty optional when absent.
  [[nodiscard]] std::optional<PublishedService> lookup(const std::string& name) const;

  /// All published service names, sorted.
  [[nodiscard]] std::vector<std::string> list() const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, PublishedService> services_;
};

/// Compiled result of discovering a service through a repository.
struct Discovery {
  ServiceDesc service;
  std::optional<qos::QualityFile> quality;
};

/// Compiles a published entry (lookup + parse_wsdl + quality parse).
Discovery compile_published(const PublishedService& published);

// --- hosting the repository as a SOAP service -------------------------------

/// `registry_record{name,wsdl,quality:string}` — the repository's own
/// message type.
pbio::FormatPtr registry_record_format();
/// `registry_name{name:string}`
pbio::FormatPtr registry_name_format();
/// `registry_listing{names:registry_name[]}`
pbio::FormatPtr registry_listing_format();
/// `registry_ack{ok:i32}`
pbio::FormatPtr registry_ack_format();

/// The registry service's own interface description (for ClientStub).
ServiceDesc registry_service_desc();

// The registry is hosted by core::host_repository() and reached through
// core::discover_service() (core/registry_host.h), which keeps wsdl free of
// a core dependency.

}  // namespace sbq::wsdl
