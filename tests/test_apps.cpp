// Unit tests for the application substrates: imaging, molecular dynamics,
// airline OIS, ECho pub/sub, SVG.
#include <gtest/gtest.h>

#include "apps/airline/ois.h"
#include "apps/echo/echo.h"
#include "apps/image/codec.h"
#include "apps/image/ops.h"
#include "apps/image/ppm.h"
#include "apps/image/synth.h"
#include "apps/image/transforms.h"
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "apps/md/analysis.h"
#include "apps/md/bond.h"
#include "apps/svg/svg.h"
#include "common/strings.h"
#include "pbio/value_codec.h"
#include "soap/codec.h"
#include "xml/reader.h"
#include "support/wire.h"

namespace sbq {
namespace {

using pbio::Value;

// ---------------------------------------------------------------- image

TEST(Ppm, WriteReadRoundTrip) {
  image::Image img(3, 2);
  img.set(0, 0, {255, 0, 0});
  img.set(2, 1, {1, 2, 3});
  const Bytes ppm = image::write_ppm(img);
  EXPECT_EQ(image::read_ppm(BytesView{ppm}), img);
}

TEST(Ppm, HeaderWithComments) {
  const std::string ppm = "P6\n# a comment\n2 1\n# another\n255\n\x10\x20\x30\x40\x50\x60";
  const image::Image img = image::read_ppm(
      BytesView{reinterpret_cast<const std::uint8_t*>(ppm.data()), ppm.size()});
  EXPECT_EQ(img.width(), 2);
  EXPECT_EQ(img.at(1, 0).b, 0x60);
}

TEST(Ppm, MalformedInputsThrow) {
  auto parse = [](std::string_view s) {
    return image::read_ppm(
        BytesView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  };
  EXPECT_THROW(parse("P5\n1 1\n255\nx"), ParseError);       // wrong magic
  EXPECT_THROW(parse("P6\n1 1\n65535\nxx"), ParseError);    // wide maxval
  EXPECT_THROW(parse("P6\n2 2\n255\nxy"), ParseError);      // truncated raster
  EXPECT_THROW(parse("P6\n0 1\n255\n"), ParseError);        // zero dimension
}

TEST(Ppm, HugeHeaderDimensionsAreCheckedAgainstTheRaster) {
  // A 1M x 1M header (3 TiB of raster) over a 3-byte body is a truncated
  // raster, not an allocation.
  const std::string_view ppm = "P6\n1048576 1048576\n255\nxyz";
  EXPECT_THROW(image::read_ppm(BytesView{reinterpret_cast<const std::uint8_t*>(ppm.data()),
                                         ppm.size()}),
               ParseError);
}

TEST(Synth, DeterministicAndSized) {
  image::StarFieldConfig cfg;
  cfg.width = 64;
  cfg.height = 48;
  cfg.star_count = 10;
  const image::Image a = image::synth_star_field(cfg);
  const image::Image b = image::synth_star_field(cfg);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.byte_size(), 64u * 48u * 3u);

  cfg.seed = 999;
  EXPECT_FALSE(image::synth_star_field(cfg) == a);
}

TEST(Synth, PaperSizeFrameIsRoughlyOneMegabyte) {
  const image::Image frame = image::synth_star_field();
  EXPECT_EQ(frame.byte_size(), 640u * 480u * 3u);  // ≈0.92 MB, "close to 1MB"
}

TEST(Ops, GrayscaleEqualChannels) {
  image::Image img(2, 1);
  img.set(0, 0, {200, 10, 30});
  const image::Image g = image::grayscale(img);
  EXPECT_EQ(g.at(0, 0).r, g.at(0, 0).g);
  EXPECT_EQ(g.at(0, 0).g, g.at(0, 0).b);
}

TEST(Ops, EdgeDetectFindsEdges) {
  // Left half black, right half white: strong vertical edge in the middle.
  image::Image img(16, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 8; x < 16; ++x) img.set(x, y, {255, 255, 255});
  }
  const image::Image edges = image::edge_detect(img);
  EXPECT_GT(edges.at(8, 4).r, 200);   // on the edge
  EXPECT_EQ(edges.at(3, 4).r, 0);     // flat region
  EXPECT_EQ(edges.at(13, 4).r, 0);    // flat region
}

TEST(Ops, DownscaleHalvesPaperResolution) {
  const image::Image full = image::synth_star_field();
  const image::Image half = image::downscale(full, 2);
  EXPECT_EQ(half.width(), 320);
  EXPECT_EQ(half.height(), 240);
  EXPECT_EQ(half.byte_size() * 4, full.byte_size());
}

TEST(Ops, DownscaleRoundsUpOddSizes) {
  image::Image odd(5, 3);
  const image::Image out = image::downscale(odd, 2);
  EXPECT_EQ(out.width(), 3);
  EXPECT_EQ(out.height(), 2);
}

TEST(Ops, ResizeAndCrop) {
  const image::Image src = image::synth_star_field(
      {.width = 32, .height = 32, .star_count = 4, .seed = 5});
  const image::Image big = image::resize(src, 64, 48);
  EXPECT_EQ(big.width(), 64);
  const image::Image cut = image::crop(src, 8, 8, 16, 12);
  EXPECT_EQ(cut.width(), 16);
  EXPECT_EQ(cut.at(0, 0).r, src.at(8, 8).r);
  EXPECT_THROW(image::crop(src, 20, 20, 20, 20), ParseError);
}

TEST(ImageCodec, ValueRoundTrip) {
  const image::Image img = image::synth_star_field(
      {.width = 20, .height = 10, .star_count = 3, .seed = 9});
  const Value v = image::image_to_value(img, *image::image_format());
  EXPECT_EQ(image::image_from_value(v), img);
}

TEST(ImageCodec, PbioWireIsNearRawSize) {
  const image::Image img = image::synth_star_field();
  const Value v = image::image_to_value(img, *image::image_format());
  const Bytes wire = test::value_wire(v, *image::image_format());
  // Binary wire ≈ raw pixels + small header, nothing like XML inflation.
  EXPECT_LT(wire.size(), img.byte_size() + 64);
}

TEST(ImageCodec, ResizeQualityHandler) {
  const image::Image img = image::synth_star_field(
      {.width = 64, .height = 64, .star_count = 6, .seed = 3});
  const Value full = image::image_to_value(img, *image::image_format());
  const Value reduced = image::resize_quality_handler(
      full, *image::half_image_format(), {});
  const image::Image back = image::image_from_value(reduced);
  EXPECT_EQ(back.width(), 32);
  EXPECT_EQ(back.height(), 32);
}

TEST(ImageCodec, SizeMismatchThrows) {
  Value bad = Value::record({{"width", 10}, {"height", 10}, {"pixels", Value{std::string(5, 'x')}}});
  EXPECT_THROW(image::image_from_value(bad), CodecError);
}

TEST(ImageCodec, HugeDimensionsThrowCodecError) {
  // i64 dimensions far past int range, with 3 bytes of pixels: rejected as
  // a codec error before any raster is allocated or dimension truncated.
  const Value huge = Value::record({{"width", std::int64_t{2000000000}},
                                    {"height", std::int64_t{2000000000}},
                                    {"pixels", Value{std::string(3, 'x')}}});
  EXPECT_THROW(image::image_from_value(huge), CodecError);
  const Value negative = Value::record({{"width", std::int64_t{-1}},
                                        {"height", std::int64_t{-3}},
                                        {"pixels", Value{std::string(3, 'x')}}});
  EXPECT_THROW(image::image_from_value(negative), CodecError);
}

TEST(Transforms, BuiltinsAndSpecs) {
  image::TransformRegistry registry;
  EXPECT_TRUE(registry.contains("edge"));
  EXPECT_TRUE(registry.contains("scale"));
  EXPECT_EQ(registry.names().size(), 6u);

  const image::Image src = image::synth_star_field(
      {.width = 32, .height = 16, .star_count = 3, .seed = 8});
  EXPECT_EQ(registry.apply("none", src), src);
  EXPECT_EQ(registry.apply("scale:2", src).width(), 16);
  EXPECT_EQ(registry.apply("resize:10:5", src).height(), 5);
  EXPECT_EQ(registry.apply("crop:4:4:8:8", src).width(), 8);
  const image::Image gray = registry.apply("gray", src);
  EXPECT_EQ(gray.at(3, 3).r, gray.at(3, 3).b);
  EXPECT_EQ(registry.apply("edge", src).width(), 32);
}

TEST(Transforms, ErrorsAreDiagnosed) {
  image::TransformRegistry registry;
  EXPECT_THROW(registry.compile("sharpen"), ParseError);
  EXPECT_THROW(registry.compile("scale"), ParseError);          // missing arg
  EXPECT_THROW(registry.compile("scale:x"), ParseError);        // bad arg
  EXPECT_THROW(registry.compile("crop:1:2:3"), ParseError);     // arity
  EXPECT_THROW(registry.compile("none:extra"), ParseError);
  EXPECT_THROW(registry.register_factory("bad", nullptr), ParseError);
  // Compile succeeds but the transform itself can still reject at runtime.
  const image::Image tiny = image::synth_star_field(
      {.width = 4, .height = 4, .star_count = 1, .seed = 1});
  EXPECT_THROW(registry.apply("crop:0:0:100:100", tiny), ParseError);
}

TEST(Transforms, CustomRegistration) {
  image::TransformRegistry registry;
  registry.register_factory("invert", [](const std::vector<std::string>&) {
    return [](const image::Image& in) {
      image::Image out = in;
      for (auto& b : out.bytes()) b = static_cast<std::uint8_t>(255 - b);
      return out;
    };
  });
  const image::Image src = image::synth_star_field(
      {.width = 8, .height = 8, .star_count = 1, .seed = 3});
  const image::Image inverted = registry.apply("invert", src);
  EXPECT_EQ(inverted.at(0, 0).r, 255 - src.at(0, 0).r);
}

// ---------------------------------------------------------------- md

TEST(Md, SimulationIsDeterministic) {
  md::BondSimulation a;
  md::BondSimulation b;
  const md::Timestep sa = a.step();
  const md::Timestep sb = b.step();
  EXPECT_EQ(sa.index, 0);
  ASSERT_EQ(sa.atoms.size(), sb.atoms.size());
  EXPECT_DOUBLE_EQ(sa.atoms[10].x, sb.atoms[10].x);
  EXPECT_EQ(sa.bonds.size(), sb.bonds.size());
}

TEST(Md, StepsAdvanceIndex) {
  md::BondSimulation sim;
  const auto batch = sim.steps(4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].index, 0);
  EXPECT_EQ(batch[3].index, 3);
  EXPECT_EQ(sim.step().index, 4);
}

TEST(Md, AtomsStayInBox) {
  md::BondSimulation sim;
  for (int i = 0; i < 20; ++i) {
    const md::Timestep ts = sim.step();
    for (const md::Atom& a : ts.atoms) {
      EXPECT_GE(a.x, 0.0);
      EXPECT_LT(a.x, sim.config().box_size);
      EXPECT_GE(a.y, 0.0);
      EXPECT_LT(a.y, sim.config().box_size);
    }
  }
}

TEST(Md, BondsRespectCutoff) {
  md::BondSimulation sim;
  const md::Timestep ts = sim.step();
  const double cutoff2 = sim.config().bond_cutoff * sim.config().bond_cutoff;
  for (const md::Bond& b : ts.bonds) {
    const md::Atom& a1 = ts.atoms[static_cast<std::size_t>(b.a)];
    const md::Atom& a2 = ts.atoms[static_cast<std::size_t>(b.b)];
    const double dx = a1.x - a2.x, dy = a1.y - a2.y, dz = a1.z - a2.z;
    EXPECT_LE(dx * dx + dy * dy + dz * dz, cutoff2 * 1.0001);
  }
}

TEST(Md, TimestepWireSizeIsAboutFourKilobytes) {
  // The paper: "the size corresponding to each of the timesteps ... is
  // about 4KB".
  md::BondSimulation sim;
  const md::Timestep ts = sim.step();
  const Value v = md::timestep_to_value(ts);
  const Bytes wire = test::value_wire(v, *md::timestep_format());
  EXPECT_GT(wire.size(), 2500u);
  EXPECT_LT(wire.size(), 6500u);
}

TEST(Md, TimestepValueRoundTrip) {
  md::BondSimulation sim;
  const md::Timestep ts = sim.step();
  const md::Timestep back = md::timestep_from_value(md::timestep_to_value(ts));
  EXPECT_EQ(back.index, ts.index);
  ASSERT_EQ(back.atoms.size(), ts.atoms.size());
  EXPECT_DOUBLE_EQ(back.atoms[5].z, ts.atoms[5].z);
  ASSERT_EQ(back.bonds.size(), ts.bonds.size());
}

TEST(Md, BatchRoundTripThroughWire) {
  md::BondSimulation sim;
  const auto steps = sim.steps(3);
  const Value batch = md::batch_to_value(steps, *md::batch_format(3));
  const Bytes wire = test::value_wire(batch, *md::batch_format(3));
  const Value decoded = pbio::decode_value_message(BytesView{wire},
                                                   *md::batch_format(3));
  const auto back = md::batch_from_value(decoded);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[2].index, steps[2].index);
}

TEST(Md, BatchFormatsAreDistinctTypes) {
  EXPECT_NE(md::batch_format(1)->format_id(), md::batch_format(4)->format_id());
  EXPECT_THROW(md::batch_format(0), CodecError);
  EXPECT_THROW(md::batch_format(5), CodecError);
}

TEST(Md, TrimBatchHandler) {
  md::BondSimulation sim;
  const Value full = md::batch_to_value(sim.steps(4), *md::batch_format(4));
  const Value trimmed = md::trim_batch_handler(full, *md::batch_format(2), {});
  EXPECT_EQ(trimmed.field("count").as_i64(), 2);
  EXPECT_EQ(trimmed.field("steps").array_size(), 2u);
}

// ---------------------------------------------------------------- md analysis

TEST(MdAnalysis, HandBuiltGraph) {
  // 5 atoms: a triangle (0-1-2), a pair (3-4).
  md::Timestep step;
  for (int i = 0; i < 5; ++i) {
    step.atoms.push_back(md::Atom{i, double(i), 0.0, 0.0});
  }
  step.atoms[4].y = 2.0;
  step.bonds = {{0, 1}, {1, 2}, {0, 2}, {3, 4}};

  const md::GraphStats stats = md::analyze(step);
  EXPECT_EQ(stats.atom_count, 5);
  EXPECT_EQ(stats.bond_count, 4);
  EXPECT_EQ(stats.cluster_count, 2);
  EXPECT_EQ(stats.largest_cluster, 3);
  EXPECT_EQ(stats.max_degree, 2);
  EXPECT_DOUBLE_EQ(stats.mean_degree, 8.0 / 5.0);
  // Bonds: |0-1|=1, |1-2|=1, |0-2|=2, |3-4|=sqrt(1+4).
  EXPECT_NEAR(stats.mean_bond_length, (1 + 1 + 2 + std::sqrt(5.0)) / 4.0, 1e-12);
}

TEST(MdAnalysis, DegreesAndComponents) {
  md::Timestep step;
  for (int i = 0; i < 4; ++i) step.atoms.push_back(md::Atom{i, 0, 0, 0});
  step.bonds = {{0, 1}, {1, 2}};
  EXPECT_EQ(md::degrees(step), (std::vector<int>{1, 2, 1, 0}));
  const auto labels = md::components(step);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(MdAnalysis, EmptyAndInvalidInput) {
  md::Timestep empty;
  const md::GraphStats stats = md::analyze(empty);
  EXPECT_EQ(stats.atom_count, 0);
  EXPECT_EQ(stats.cluster_count, 0);

  md::Timestep bad;
  bad.atoms.push_back(md::Atom{5, 0, 0, 0});  // non-dense id
  EXPECT_THROW(md::analyze(bad), CodecError);

  md::Timestep bad_bond;
  bad_bond.atoms.push_back(md::Atom{0, 0, 0, 0});
  bad_bond.bonds.push_back(md::Bond{0, 9});
  EXPECT_THROW(md::analyze(bad_bond), CodecError);
}

TEST(MdAnalysis, SimulationGraphsAreConsistent) {
  md::BondSimulation sim;
  const md::Timestep step = sim.step();
  const md::GraphStats stats = md::analyze(step);
  EXPECT_EQ(stats.atom_count, sim.config().atom_count);
  EXPECT_EQ(stats.bond_count, static_cast<int>(step.bonds.size()));
  // Every bond is at most the cutoff long (no periodic wrap in find_bonds).
  EXPECT_LE(stats.mean_bond_length, sim.config().bond_cutoff);
  EXPECT_GE(stats.cluster_count, 1);
  EXPECT_LE(stats.largest_cluster, stats.atom_count);
}

TEST(MdAnalysis, StatsValueRoundTrip) {
  md::BondSimulation sim;
  const md::GraphStats stats = md::analyze(sim.step());
  const md::GraphStats back =
      md::stats_from_value(md::stats_to_value(stats));
  EXPECT_EQ(back.atom_count, stats.atom_count);
  EXPECT_DOUBLE_EQ(back.mean_bond_length, stats.mean_bond_length);
  EXPECT_EQ(back.largest_cluster, stats.largest_cluster);
  // And it crosses the wire like any other PBIO record.
  const Bytes wire =
      test::value_wire(md::stats_to_value(stats), *md::graph_stats_format());
  EXPECT_LT(wire.size(), 80u);  // summary ≪ the ~4KB graph it describes
}

// ---------------------------------------------------------------- airline

TEST(Airline, MealRules) {
  airline::Passenger p;
  p.cabin = airline::CabinClass::kFirst;
  EXPECT_EQ(airline::meal_code_for(p), "STD-F");
  p.cabin = airline::CabinClass::kEconomy;
  EXPECT_EQ(airline::meal_code_for(p), "STD-Y");
  p.meal_preference = "VGML";
  EXPECT_EQ(airline::meal_code_for(p), "VGML");  // preference wins
}

TEST(Airline, StorePopulatesDeterministically) {
  airline::OperationalStore a(7);
  airline::OperationalStore b(7);
  a.populate(5, 20);
  b.populate(5, 20);
  ASSERT_EQ(a.flight_numbers(), b.flight_numbers());
  const auto* fa = a.flight(a.flight_numbers()[0]);
  const auto* fb = b.flight(b.flight_numbers()[0]);
  ASSERT_NE(fa, nullptr);
  EXPECT_EQ(fa->origin, fb->origin);
  EXPECT_EQ(fa->passengers.size(), 20u);
}

TEST(Airline, EventsMutateStore) {
  airline::OperationalStore store(3);
  store.populate(2, 10);
  for (int i = 0; i < 20; ++i) {
    const std::string desc = store.apply_random_event();
    EXPECT_FALSE(desc.empty());
  }
  EXPECT_EQ(store.event_count(), 20u);
}

TEST(Airline, ExcerptDerivation) {
  airline::OperationalStore store(11);
  store.populate(1, 30);
  const auto* flight = store.flight(store.flight_numbers()[0]);
  const airline::CateringExcerpt excerpt = airline::catering_excerpt(*flight);
  EXPECT_EQ(excerpt.flight, flight->number);
  EXPECT_EQ(excerpt.meals.size(), 30u);
}

TEST(Airline, ExcerptValueRoundTrip) {
  airline::OperationalStore store(11);
  store.populate(1, 25);
  const airline::CateringExcerpt excerpt =
      airline::catering_excerpt(*store.flight(store.flight_numbers()[0]));
  const airline::CateringExcerpt back =
      airline::excerpt_from_value(airline::excerpt_to_value(excerpt));
  EXPECT_EQ(back.flight, excerpt.flight);
  ASSERT_EQ(back.meals.size(), excerpt.meals.size());
  EXPECT_EQ(back.meals[7].code, excerpt.meals[7].code);
}

TEST(Airline, TableOneSizeRatios) {
  // Table I: SOAP 3898 B vs PBIO 860 B — XML ≈ 4.5x binary for the catering
  // excerpt. Validate the shape with a comparable record count.
  airline::OperationalStore store(42);
  store.populate(1, 48);
  const airline::CateringExcerpt excerpt =
      airline::catering_excerpt(*store.flight(store.flight_numbers()[0]));
  const Value v = airline::excerpt_to_value(excerpt);
  const Bytes bin = test::value_wire(v, *airline::catering_excerpt_format());
  const std::string xml =
      soap::value_to_xml(v, *airline::catering_excerpt_format(), "excerpt");
  const double ratio = static_cast<double>(xml.size()) / static_cast<double>(bin.size());
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 7.0);
}

// ---------------------------------------------------------------- echo

TEST(Echo, SinksReceiveEvents) {
  echo::EventChannel channel("bonds", md::timestep_format());
  int received = 0;
  channel.subscribe([&](const echo::Event&) {
    ++received;
    return true;
  });
  md::BondSimulation sim;
  channel.submit({md::timestep_format(), md::timestep_to_value(sim.step())});
  channel.submit({md::timestep_format(), md::timestep_to_value(sim.step())});
  EXPECT_EQ(received, 2);
  EXPECT_EQ(channel.events_submitted(), 2u);
}

TEST(Echo, SinkReturningFalseUnsubscribes) {
  echo::EventChannel channel("c", nullptr);
  int calls = 0;
  channel.subscribe([&](const echo::Event&) {
    ++calls;
    return false;
  });
  channel.submit({nullptr, Value{1}});
  channel.submit({nullptr, Value{2}});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(channel.sink_count(), 0u);
}

TEST(Echo, UnsubscribeByToken) {
  echo::EventChannel channel("c", nullptr);
  int calls = 0;
  const auto token = channel.subscribe([&](const echo::Event&) {
    ++calls;
    return true;
  });
  channel.unsubscribe(token);
  channel.submit({nullptr, Value{1}});
  EXPECT_EQ(calls, 0);
}

TEST(Echo, FormatMismatchRejected) {
  echo::EventChannel channel("typed", md::timestep_format());
  EXPECT_THROW(channel.submit({md::bond_format(), Value::empty_record()}),
               CodecError);
}

TEST(Echo, DerivedChannelFilters) {
  echo::EventChannel parent("all", nullptr);
  auto derived = parent.derive("evens", nullptr, [](const echo::Event& e) {
    if (e.value.as_i64() % 2 != 0) return std::optional<echo::Event>{};
    echo::Event out = e;
    out.value = Value{e.value.as_i64() * 10};
    return std::optional<echo::Event>{out};
  });
  std::vector<std::int64_t> seen;
  derived->subscribe([&](const echo::Event& e) {
    seen.push_back(e.value.as_i64());
    return true;
  });
  for (int i = 0; i < 5; ++i) parent.submit({nullptr, Value{i}});
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 20, 40}));
}

TEST(Echo, DomainRegistry) {
  echo::EventDomain domain;
  auto c = domain.create_channel("bonds", md::timestep_format());
  EXPECT_EQ(domain.find("bonds"), c);
  EXPECT_EQ(domain.find("ghost"), nullptr);
  EXPECT_THROW(domain.create_channel("bonds", nullptr), RpcError);
}

// ---------------------------------------------------------------- svg

/// An SVG document read whole (so it must be well-formed): the root's name,
/// its child elements in order, and the character data of its <text>
/// children.
struct SvgOutline {
  std::string root;
  std::vector<std::string> children;
  std::string text;
};

SvgOutline read_svg(std::string_view doc) {
  using Token = xml::Reader::Token;
  xml::Reader r(doc);
  SvgOutline out;
  while (r.next() != Token::kStartElement) {
  }
  out.root = r.name();
  for (Token t = r.next(); t != Token::kEndElement; t = r.next()) {
    if (t != Token::kStartElement) continue;
    out.children.emplace_back(r.name());
    if (r.name() == "text") {
      r.read_text(out.text);
    } else {
      r.skip_element();
    }
  }
  while (r.next() != Token::kEndOfDocument) {
  }
  return out;
}

TEST(Svg, WriterProducesValidXml) {
  svg::SvgWriter w(100, 50);
  w.rect(0, 0, 100, 50, "black");
  w.circle(10, 10, 2.5, "#fff");
  w.line(0, 0, 99, 49, "red", 0.5);
  w.text(5, 20, "label <escaped>");
  const std::string doc = w.take();
  const SvgOutline svg = read_svg(doc);
  EXPECT_EQ(svg.root, "svg");
  EXPECT_EQ(svg.children.size(), 4u);
  EXPECT_EQ(trim(svg.text), "label <escaped>");
}

TEST(Svg, RenderMoleculeContainsAtomsAndBonds) {
  md::BondSimulation sim;
  const md::Timestep ts = sim.step();
  const std::string doc = svg::render_molecule(ts, sim.config().box_size);
  const std::vector<std::string> children = read_svg(doc).children;
  auto count = [&children](const char* name) {
    return static_cast<std::size_t>(std::count(children.begin(), children.end(), name));
  };
  EXPECT_EQ(count("circle"), ts.atoms.size());
  EXPECT_EQ(count("line"), ts.bonds.size());
}

TEST(Svg, RenderRejectsBadBox) {
  md::Timestep ts;
  EXPECT_THROW(svg::render_molecule(ts, 0.0), ParseError);
}

TEST(Svg, SixteenKilobyteVisualizationPayload) {
  // §IV-C.4 reports a ~16 KB SVG response; a ~100-atom frame lands in that
  // ballpark.
  md::BondSimulation sim;
  const std::string doc = svg::render_molecule(sim.step(), sim.config().box_size);
  EXPECT_GT(doc.size(), 6000u);
  EXPECT_LT(doc.size(), 40000u);
}

}  // namespace
}  // namespace sbq
