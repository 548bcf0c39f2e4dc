#include "qos/handler_repository.h"

#include "common/error.h"
#include "common/strings.h"
#include "pbio/value_codec.h"

namespace sbq::qos {

using pbio::Value;

namespace {

std::size_t parse_positive(const std::string& token, const char* what) {
  const std::uint64_t v = parse_u64(token);
  if (v == 0) throw QosError(std::string(what) + " must be positive");
  return static_cast<std::size_t>(v);
}

/// Shrinks array or bulk-string field `field_name` keeping the first 1/n.
QualityHandler make_truncate(const std::string& field_name, std::size_t n) {
  return [field_name, n](const Value& full, const pbio::FormatDesc& target,
                         const AttributeMap&) {
    const Value* src = full.find_field(field_name);
    if (src == nullptr) {
      throw QosError("truncate: message has no field '" + field_name + "'");
    }
    if (src->is_string()) {
      const std::string& s = src->as_string();
      return pbio::project_value(full, target, field_name, Value{s.substr(0, s.size() / n)});
    }
    return pbio::project_value(full, target, field_name, src->slice(src->array_size() / n));
  };
}

/// Keeps every nth element of array field `field_name` (down-sampling).
QualityHandler make_stride(const std::string& field_name, std::size_t n) {
  return [field_name, n](const Value& full, const pbio::FormatDesc& target,
                         const AttributeMap&) {
    const Value* src = full.find_field(field_name);
    if (src == nullptr) {
      throw QosError("stride: message has no field '" + field_name + "'");
    }
    return pbio::project_value(full, target, field_name, src->slice(src->array_size(), n));
  };
}

}  // namespace

HandlerRepository::HandlerRepository() {
  register_factory("project", [](const std::vector<std::string>& args) {
    if (!args.empty()) throw QosError("project takes no arguments");
    return [](const Value& full, const pbio::FormatDesc& target,
              const AttributeMap&) { return pbio::project_value(full, target); };
  });
  register_factory("truncate", [](const std::vector<std::string>& args) {
    if (args.size() != 2) throw QosError("truncate needs field:divisor");
    return make_truncate(args[0], parse_positive(args[1], "truncate divisor"));
  });
  register_factory("stride", [](const std::vector<std::string>& args) {
    if (args.size() != 2) throw QosError("stride needs field:step");
    return make_stride(args[0], parse_positive(args[1], "stride step"));
  });
}

void HandlerRepository::register_factory(std::string name, HandlerFactory factory) {
  if (!factory) throw QosError("null handler factory for '" + name + "'");
  factories_[std::move(name)] = std::move(factory);
}

QualityHandler HandlerRepository::instantiate(std::string_view spec) const {
  const auto parts = split(spec, ':');
  const std::string_view name = parts.empty() ? spec : parts[0];
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw QosError("unknown quality handler '" + std::string(name) + "'");
  }
  std::vector<std::string> args;
  for (std::size_t i = 1; i < parts.size(); ++i) args.emplace_back(parts[i]);
  return it->second(args);
}

bool HandlerRepository::contains(std::string_view name) const {
  return factories_.contains(name);
}

std::vector<std::string> HandlerRepository::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

}  // namespace sbq::qos
