#include "apps/md/bond.h"

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "pbio/value_codec.h"

namespace sbq::md {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::TypeKind;
using pbio::Value;

BondSimulation::BondSimulation(SimulationConfig config) : config_(config) {
  if (config_.atom_count <= 0) throw CodecError("atom_count must be positive");
  Rng rng(config_.seed);
  atoms_.resize(static_cast<std::size_t>(config_.atom_count));
  vx_.resize(atoms_.size());
  vy_.resize(atoms_.size());
  vz_.resize(atoms_.size());
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    atoms_[i].id = static_cast<std::int32_t>(i);
    atoms_[i].x = rng.uniform(0.0, config_.box_size);
    atoms_[i].y = rng.uniform(0.0, config_.box_size);
    atoms_[i].z = rng.uniform(0.0, config_.box_size);
    vx_[i] = rng.normal(0.0, 0.8);
    vy_[i] = rng.normal(0.0, 0.8);
    vz_[i] = rng.normal(0.0, 0.8);
  }
}

void BondSimulation::integrate() {
  // Free drift in a periodic box plus a gentle pairwise spring for atoms
  // inside the cutoff — enough dynamics for bonds to form and break.
  const double box = config_.box_size;
  auto wrap = [box](double v) {
    while (v < 0) v += box;
    while (v >= box) v -= box;
    return v;
  };
  const double k = 0.6;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms_.size(); ++j) {
      const double dx = atoms_[j].x - atoms_[i].x;
      const double dy = atoms_[j].y - atoms_[i].y;
      const double dz = atoms_[j].z - atoms_[i].z;
      const double d2 = dx * dx + dy * dy + dz * dz;
      const double cutoff2 = config_.bond_cutoff * config_.bond_cutoff;
      if (d2 > cutoff2 || d2 < 1e-9) continue;
      const double d = std::sqrt(d2);
      // Spring toward the preferred distance (0.8 * cutoff).
      const double f = k * (d - 0.8 * config_.bond_cutoff) / d;
      vx_[i] += f * dx * config_.dt;
      vy_[i] += f * dy * config_.dt;
      vz_[i] += f * dz * config_.dt;
      vx_[j] -= f * dx * config_.dt;
      vy_[j] -= f * dy * config_.dt;
      vz_[j] -= f * dz * config_.dt;
    }
  }
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    atoms_[i].x = wrap(atoms_[i].x + vx_[i] * config_.dt * 20);
    atoms_[i].y = wrap(atoms_[i].y + vy_[i] * config_.dt * 20);
    atoms_[i].z = wrap(atoms_[i].z + vz_[i] * config_.dt * 20);
  }
}

std::vector<Bond> BondSimulation::find_bonds() const {
  std::vector<Bond> bonds;
  const double cutoff2 = config_.bond_cutoff * config_.bond_cutoff;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    for (std::size_t j = i + 1; j < atoms_.size(); ++j) {
      const double dx = atoms_[j].x - atoms_[i].x;
      const double dy = atoms_[j].y - atoms_[i].y;
      const double dz = atoms_[j].z - atoms_[i].z;
      if (dx * dx + dy * dy + dz * dz <= cutoff2) {
        bonds.push_back(Bond{atoms_[i].id, atoms_[j].id});
      }
    }
  }
  return bonds;
}

Timestep BondSimulation::step() {
  integrate();
  Timestep ts;
  ts.index = index_++;
  ts.atoms = atoms_;
  ts.bonds = find_bonds();
  return ts;
}

std::vector<Timestep> BondSimulation::steps(int n) {
  if (n <= 0) throw CodecError("steps(n): n must be positive");
  std::vector<Timestep> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(step());
  return out;
}

FormatPtr atom_format() {
  static const FormatPtr format = FormatBuilder("atom")
                                      .add_scalar("id", TypeKind::kInt32)
                                      .add_scalar("x", TypeKind::kFloat64)
                                      .add_scalar("y", TypeKind::kFloat64)
                                      .add_scalar("z", TypeKind::kFloat64)
                                      .build();
  return format;
}

FormatPtr bond_format() {
  static const FormatPtr format = FormatBuilder("bond")
                                      .add_scalar("a", TypeKind::kInt32)
                                      .add_scalar("b", TypeKind::kInt32)
                                      .build();
  return format;
}

FormatPtr timestep_format() {
  static const FormatPtr format = FormatBuilder("timestep")
                                      .add_scalar("index", TypeKind::kInt32)
                                      .add_struct_var_array("atoms", atom_format())
                                      .add_struct_var_array("bonds", bond_format())
                                      .build();
  return format;
}

FormatPtr batch_format(int max_steps) {
  if (max_steps < 1 || max_steps > 4) {
    throw CodecError("batch_format: max_steps must be 1..4");
  }
  static const FormatPtr formats[4] = {
      FormatBuilder("bond_batch_1")
          .add_scalar("count", TypeKind::kInt32)
          .add_struct_var_array("steps", timestep_format())
          .build(),
      FormatBuilder("bond_batch_2")
          .add_scalar("count", TypeKind::kInt32)
          .add_struct_var_array("steps", timestep_format())
          .build(),
      FormatBuilder("bond_batch_3")
          .add_scalar("count", TypeKind::kInt32)
          .add_struct_var_array("steps", timestep_format())
          .build(),
      FormatBuilder("bond_batch_4")
          .add_scalar("count", TypeKind::kInt32)
          .add_struct_var_array("steps", timestep_format())
          .build(),
  };
  return formats[max_steps - 1];
}

FormatPtr bond_request_format() {
  static const FormatPtr format = FormatBuilder("bond_request")
                                      .add_scalar("from_index", TypeKind::kInt32)
                                      .add_scalar("max_steps", TypeKind::kInt32)
                                      .build();
  return format;
}

Value timestep_to_value(const Timestep& step) {
  Value atoms = Value::empty_array();
  for (const Atom& a : step.atoms) {
    atoms.push_back(Value::record(
        {{"id", a.id}, {"x", a.x}, {"y", a.y}, {"z", a.z}}));
  }
  Value bonds = Value::empty_array();
  for (const Bond& b : step.bonds) {
    bonds.push_back(Value::record({{"a", b.a}, {"b", b.b}}));
  }
  return Value::record(
      {{"index", step.index}, {"atoms", std::move(atoms)}, {"bonds", std::move(bonds)}});
}

Timestep timestep_from_value(const Value& value) {
  Timestep step;
  step.index = static_cast<std::int32_t>(value.field("index").as_i64());
  for (const Value& a : value.field("atoms").elements()) {
    step.atoms.push_back(Atom{static_cast<std::int32_t>(a.field("id").as_i64()),
                              a.field("x").as_f64(), a.field("y").as_f64(),
                              a.field("z").as_f64()});
  }
  for (const Value& b : value.field("bonds").elements()) {
    step.bonds.push_back(Bond{static_cast<std::int32_t>(b.field("a").as_i64()),
                              static_cast<std::int32_t>(b.field("b").as_i64())});
  }
  return step;
}

Value batch_to_value(const std::vector<Timestep>& steps,
                     const pbio::FormatDesc& format) {
  if (format.field("steps") == nullptr) {
    throw CodecError("format '" + format.name + "' is not a bond batch format");
  }
  Value array = Value::empty_array();
  for (const Timestep& ts : steps) array.push_back(timestep_to_value(ts));
  return Value::record(
      {{"count", static_cast<std::int64_t>(steps.size())}, {"steps", std::move(array)}});
}

std::vector<Timestep> batch_from_value(const Value& value) {
  std::vector<Timestep> out;
  for (const Value& ts : value.field("steps").elements()) {
    out.push_back(timestep_from_value(ts));
  }
  return out;
}

Value trim_batch_handler(const Value& full, const pbio::FormatDesc& target,
                         const qos::AttributeMap& /*attributes*/) {
  // Target name "bond_batch_N" encodes the step budget.
  const char last = target.name.back();
  if (last < '1' || last > '4') {
    throw CodecError("trim_batch_handler: bad target format '" + target.name + "'");
  }
  const std::size_t budget = static_cast<std::size_t>(last - '0');
  Value trimmed = full.field("steps").slice(budget);
  return Value::record({{"count", static_cast<std::int64_t>(trimmed.array_size())},
                        {"steps", std::move(trimmed)}});
}

}  // namespace sbq::md
