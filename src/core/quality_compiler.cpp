#include "core/quality_compiler.h"

#include "common/error.h"

namespace sbq::core {

std::shared_ptr<qos::QualityManager> compile_quality(
    const qos::QualityFile& file, const wsdl::ServiceDesc& service,
    const QualityCompileOptions& options) {
  if (!options.handler_specs.empty() && options.handlers == nullptr) {
    throw QosError("compile_quality: handler specs given without a repository");
  }

  auto manager = std::make_shared<qos::QualityManager>(file,
                                                       options.switch_threshold);

  for (const qos::QualityRule& rule : file.rules()) {
    const pbio::FormatPtr format = service.type(rule.message_type);
    if (!format) {
      throw QosError("quality file names message type '" + rule.message_type +
                     "' which the WSDL does not define");
    }

    qos::QualityHandler handler;  // empty = trivial projection handler
    const auto spec = options.handler_specs.find(rule.message_type);
    if (spec != options.handler_specs.end()) {
      handler = options.handlers->instantiate(spec->second);
    }
    manager->register_message_type(rule.message_type, format, std::move(handler));
  }

  // Specs for types the quality file never selects are configuration bugs.
  const auto registry = manager->registry();
  for (const auto& [type_name, spec] : options.handler_specs) {
    if (!registry->contains(type_name)) {
      throw QosError("handler spec for '" + type_name +
                     "' but the quality file never selects that type");
    }
  }
  return manager;
}

}  // namespace sbq::core
