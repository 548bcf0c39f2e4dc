// Unit tests for the WSDL compiler front end (parse → formats) and back end
// (stub generation), plus WSDL generation round-trips.
#include <gtest/gtest.h>

#include "wsdl/stubgen.h"
#include "wsdl/wsdl.h"

namespace sbq::wsdl {
namespace {

constexpr const char* kImageWsdl = R"(<?xml version="1.0"?>
<definitions name="ImageService" targetNamespace="urn:image"
             xmlns:tns="urn:image" xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <types>
    <xsd:schema>
      <xsd:complexType name="image_request">
        <xsd:sequence>
          <xsd:element name="filename" type="xsd:string"/>
          <xsd:element name="transform" type="xsd:string"/>
        </xsd:sequence>
      </xsd:complexType>
      <xsd:complexType name="image">
        <xsd:sequence>
          <xsd:element name="width" type="xsd:int"/>
          <xsd:element name="height" type="xsd:int"/>
          <xsd:element name="pixels" type="xsd:byte" minOccurs="0" maxOccurs="unbounded"/>
        </xsd:sequence>
      </xsd:complexType>
    </xsd:schema>
  </types>
  <message name="getImageInput"><part name="params" type="tns:image_request"/></message>
  <message name="getImageOutput"><part name="result" type="tns:image"/></message>
  <portType name="ImagePort">
    <operation name="getImage">
      <input message="tns:getImageInput"/>
      <output message="tns:getImageOutput"/>
    </operation>
  </portType>
  <service name="ImageService">
    <port name="ImagePort" binding="tns:ImageBinding">
      <address location="http://localhost:8080/image"/>
    </port>
  </service>
</definitions>)";

TEST(WsdlParse, CompilesServiceAndTypes) {
  const ServiceDesc svc = parse_wsdl(kImageWsdl);
  EXPECT_EQ(svc.name, "ImageService");
  EXPECT_EQ(svc.target_namespace, "urn:image");
  EXPECT_EQ(svc.location, "http://localhost:8080/image");
  ASSERT_EQ(svc.operations.size(), 1u);
  EXPECT_EQ(svc.operations[0].name, "getImage");
  EXPECT_EQ(svc.operations[0].input->canonical(),
            "image_request{filename:string,transform:string}");
  EXPECT_EQ(svc.operations[0].output->canonical(),
            "image{width:i32,height:i32,pixels:char[]}");
}

TEST(WsdlParse, TypeLookupHelpers) {
  const ServiceDesc svc = parse_wsdl(kImageWsdl);
  EXPECT_NE(svc.type("image"), nullptr);
  EXPECT_EQ(svc.type("nope"), nullptr);
  EXPECT_NE(svc.operation("getImage"), nullptr);
  EXPECT_EQ(svc.operation("nope"), nullptr);
  EXPECT_THROW((void)svc.required_operation("nope"), ParseError);
}

TEST(WsdlParse, NestedComplexTypes) {
  const ServiceDesc svc = parse_wsdl(R"(<definitions name="S">
    <types><schema>
      <complexType name="point"><sequence>
        <element name="x" type="double"/><element name="y" type="double"/>
      </sequence></complexType>
      <complexType name="path"><sequence>
        <element name="id" type="int"/>
        <element name="points" type="point" maxOccurs="unbounded"/>
      </sequence></complexType>
    </schema></types>
    <message name="in"><part name="p" type="path"/></message>
    <message name="out"><part name="p" type="point"/></message>
    <portType name="P"><operation name="head">
      <input message="in"/><output message="out"/>
    </operation></portType>
  </definitions>)");
  EXPECT_EQ(svc.required_operation("head").input->canonical(),
            "path{id:i32,points:point{x:f64,y:f64}[]}");
}

TEST(WsdlParse, FixedOccursBecomesFixedArray) {
  const ServiceDesc svc = parse_wsdl(R"(<definitions name="S">
    <types><schema>
      <complexType name="m"><sequence>
        <element name="vals" type="float" maxOccurs="4"/>
      </sequence></complexType>
    </schema></types>
    <message name="io"><part name="p" type="m"/></message>
    <portType name="P"><operation name="op">
      <input message="io"/><output message="io"/>
    </operation></portType>
  </definitions>)");
  EXPECT_EQ(svc.required_operation("op").input->canonical(), "m{vals:f32[4]}");
}

TEST(WsdlParse, XsdScalarMapping) {
  using pbio::TypeKind;
  EXPECT_EQ(xsd_scalar_kind("xsd:int"), TypeKind::kInt32);
  EXPECT_EQ(xsd_scalar_kind("long"), TypeKind::kInt64);
  EXPECT_EQ(xsd_scalar_kind("unsignedInt"), TypeKind::kUInt32);
  EXPECT_EQ(xsd_scalar_kind("unsignedLong"), TypeKind::kUInt64);
  EXPECT_EQ(xsd_scalar_kind("float"), TypeKind::kFloat32);
  EXPECT_EQ(xsd_scalar_kind("xsd:double"), TypeKind::kFloat64);
  EXPECT_EQ(xsd_scalar_kind("byte"), TypeKind::kChar);
  EXPECT_EQ(xsd_scalar_kind("string"), TypeKind::kString);
  EXPECT_THROW(xsd_scalar_kind("dateTime"), ParseError);
}

TEST(WsdlParse, ErrorsAreDiagnosed) {
  EXPECT_THROW(parse_wsdl("<notwsdl/>"), ParseError);
  // Unknown referenced type.
  EXPECT_THROW(parse_wsdl(R"(<definitions name="S">
    <message name="io"><part name="p" type="ghost"/></message>
    <portType name="P"><operation name="op">
      <input message="io"/><output message="io"/>
    </operation></portType></definitions>)"),
               ParseError);
  // No operations.
  EXPECT_THROW(parse_wsdl(R"(<definitions name="S"></definitions>)"), ParseError);
  // Forward reference.
  EXPECT_THROW(parse_wsdl(R"(<definitions name="S">
    <types><schema>
      <complexType name="a"><sequence>
        <element name="b" type="later"/>
      </sequence></complexType>
      <complexType name="later"><sequence>
        <element name="x" type="int"/>
      </sequence></complexType>
    </schema></types>
    <message name="io"><part name="p" type="a"/></message>
    <portType name="P"><operation name="op">
      <input message="io"/><output message="io"/>
    </operation></portType></definitions>)"),
               ParseError);
  // maxOccurs past UINT32_MAX: 2^32 + 1 and 2^32 + 2 must not wrap to a
  // scalar and a two-element array.
  for (const char* max_occurs : {"4294967297", "4294967298"}) {
    EXPECT_THROW(parse_wsdl(std::string(R"(<definitions name="S">
      <types><schema>
        <complexType name="a"><sequence>
          <element name="x" type="int" maxOccurs=")") + max_occurs + R"("/>
        </sequence></complexType>
      </schema></types>
      <message name="io"><part name="p" type="a"/></message>
      <portType name="P"><operation name="op">
        <input message="io"/><output message="io"/>
      </operation></portType></definitions>)"),
                 ParseError)
        << max_occurs;
  }
}

// The document lookups WSDL compilation makes on the reader: attributes by
// local name, and required attributes and children.

TEST(Dom, AttributeLookupIgnoresPrefix) {
  const ServiceDesc svc = parse_wsdl(R"(<definitions wsdl:name="S" xmlns:wsdl="u"
      xmlns:xsd="x"><types><xsd:schema>
    <xsd:complexType xsd:name="t"><xsd:sequence>
      <xsd:element xsd:name="a" xsd:type="xsd:int"/></xsd:sequence></xsd:complexType>
    </xsd:schema></types>
    <message wsdl:name="io"><part wsdl:name="p" wsdl:type="tns:t"/></message>
    <portType wsdl:name="P"><operation wsdl:name="op">
      <input wsdl:message="tns:io"/><output wsdl:message="tns:io"/>
    </operation></portType></definitions>)");
  EXPECT_EQ(svc.name, "S");
  EXPECT_EQ(svc.required_operation("op").input->canonical(), "t{a:i32}");
}

TEST(Dom, RequiredLookupsThrow) {
  // Missing required parts, each in an otherwise valid document.
  auto wsdl = [](const std::string& types, const std::string& operation) {
    return R"(<definitions name="S"><types><schema>)" + types +
           R"(</schema></types><message name="io"><part name="p" type="t"/></message>
           <portType name="P">)" + operation + "</portType></definitions>";
  };
  const std::string type = R"(<complexType name="t"><sequence>
    <element name="a" type="int"/></sequence></complexType>)";
  const std::string operation =
      R"(<operation name="op"><input message="io"/><output message="io"/></operation>)";
  EXPECT_NO_THROW(parse_wsdl(wsdl(type, operation)));
  // A complexType without a name or a sequence; an element without a type.
  EXPECT_THROW(parse_wsdl(wsdl(R"(<complexType><sequence>
    <element name="a" type="int"/></sequence></complexType>)", operation)),
               ParseError);
  EXPECT_THROW(parse_wsdl(wsdl(R"(<complexType name="t"/>)", operation)), ParseError);
  EXPECT_THROW(parse_wsdl(wsdl(R"(<complexType name="t"><sequence>
    <element name="a"/></sequence></complexType>)", operation)),
               ParseError);
  // An operation without a name, an output, or an input message.
  EXPECT_THROW(parse_wsdl(wsdl(type, R"(<operation><input message="io"/>
    <output message="io"/></operation>)")),
               ParseError);
  EXPECT_THROW(parse_wsdl(wsdl(type, R"(<operation name="op"><input message="io"/>
    </operation>)")),
               ParseError);
  EXPECT_THROW(parse_wsdl(wsdl(type, R"(<operation name="op"><input/>
    <output message="io"/></operation>)")),
               ParseError);
}

TEST(WsdlParse, SectionsInAnyOrderWithPrefixes) {
  // Operations before their messages, messages before their types, prefixed
  // names throughout, sections the compiler does not read, and a second
  // <service> that does not count.
  const ServiceDesc svc = parse_wsdl(R"(<?xml version="1.0"?>
<wsdl:definitions name="Ordered" targetNamespace="urn:ordered"
    xmlns:wsdl="http://schemas.xmlsoap.org/wsdl/" xmlns:tns="urn:ordered"
    xmlns:soap="http://schemas.xmlsoap.org/wsdl/soap/"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <wsdl:documentation>Skipped, <b>markup</b> and all.</wsdl:documentation>
  <wsdl:portType name="OrderedPort">
    <wsdl:operation name="total" wsdl:idempotent="true">
      <wsdl:input wsdl:message="tns:totalInput"/>
      <wsdl:output wsdl:message="tns:totalOutput"/>
    </wsdl:operation>
  </wsdl:portType>
  <wsdl:message name="totalInput"><wsdl:part name="p" type="tns:pair"/></wsdl:message>
  <wsdl:message name="totalOutput"><wsdl:part name="r" type="tns:sum"/></wsdl:message>
  <wsdl:binding name="OrderedBinding" type="tns:OrderedPort">
    <soap:binding style="rpc"/>
    <wsdl:operation name="total"><soap:operation soapAction=""/></wsdl:operation>
  </wsdl:binding>
  <wsdl:types>
    <xsd:schema>
      <xsd:complexType name="pair"><xsd:sequence>
        <xsd:element name="a" type="xsd:int"/><xsd:element name="b" type="xsd:int"/>
      </xsd:sequence></xsd:complexType>
      <xsd:complexType name="sum"><xsd:sequence>
        <xsd:element name="total" type="xsd:long"/>
      </xsd:sequence></xsd:complexType>
    </xsd:schema>
  </wsdl:types>
  <wsdl:service name="First">
    <wsdl:port name="p"><soap:address location="http://first.example/"/></wsdl:port>
  </wsdl:service>
  <wsdl:service name="Second">
    <wsdl:port name="p"><soap:address location="http://second.example/"/></wsdl:port>
  </wsdl:service>
</wsdl:definitions>)");
  EXPECT_EQ(svc.name, "Ordered");
  EXPECT_EQ(svc.target_namespace, "urn:ordered");
  EXPECT_EQ(svc.location, "http://first.example/");
  ASSERT_EQ(svc.operations.size(), 1u);
  EXPECT_EQ(svc.operations[0].name, "total");
  EXPECT_TRUE(svc.operations[0].idempotent);
  EXPECT_EQ(svc.operations[0].input->canonical(), "pair{a:i32,b:i32}");
  EXPECT_EQ(svc.operations[0].output->canonical(), "sum{total:i64}");
  EXPECT_EQ(svc.types.size(), 2u);
}

TEST(WsdlGenerate, RoundTripsThroughParse) {
  const ServiceDesc original = parse_wsdl(kImageWsdl);
  const std::string regenerated = generate_wsdl(original);
  const ServiceDesc back = parse_wsdl(regenerated);
  EXPECT_EQ(back.name, original.name);
  ASSERT_EQ(back.operations.size(), original.operations.size());
  EXPECT_EQ(back.operations[0].input->canonical(),
            original.operations[0].input->canonical());
  EXPECT_EQ(back.operations[0].output->canonical(),
            original.operations[0].output->canonical());
  EXPECT_EQ(back.operations[0].input->format_id(),
            original.operations[0].input->format_id());
}

TEST(Stubgen, SanitizesIdentifiers) {
  EXPECT_EQ(sanitize_identifier("plain_name"), "plain_name");
  EXPECT_EQ(sanitize_identifier("with-dash.dot"), "with_dash_dot");
  EXPECT_EQ(sanitize_identifier("1starts_with_digit"), "f_1starts_with_digit");
}

TEST(Stubgen, EmitsExpectedArtifacts) {
  const ServiceDesc svc = parse_wsdl(kImageWsdl);
  const StubFiles stubs = generate_stubs(svc);

  // Header: format accessors, client stub, skeleton; no C structs.
  EXPECT_NE(stubs.header.find("sbq::pbio::FormatPtr format_image_request();"),
            std::string::npos);
  EXPECT_NE(stubs.header.find("sbq::pbio::FormatPtr format_image();"), std::string::npos);
  EXPECT_EQ(stubs.header.find("struct "), std::string::npos);
  EXPECT_NE(stubs.header.find("class ImageServiceClient {"), std::string::npos);
  EXPECT_NE(stubs.header.find("class ImageServiceSkeleton {"), std::string::npos);
  EXPECT_NE(stubs.header.find("virtual sbq::pbio::Value getImage"), std::string::npos);

  // Support file: format builders with the right calls.
  EXPECT_NE(stubs.support.find("FormatBuilder b(\"image\")"), std::string::npos);
  EXPECT_NE(stubs.support.find("add_var_array(\"pixels\""), std::string::npos);
  EXPECT_NE(stubs.support.find("add_string(\"filename\")"), std::string::npos);
}

TEST(Stubgen, DeterministicOutput) {
  const ServiceDesc svc = parse_wsdl(kImageWsdl);
  const StubFiles a = generate_stubs(svc);
  const StubFiles b = generate_stubs(svc);
  EXPECT_EQ(a.header, b.header);
  EXPECT_EQ(a.support, b.support);
}

}  // namespace
}  // namespace sbq::wsdl
