// Differential test of the production StAX reader (src/xml/stax.h)
// against ReferenceStaxReader, a frozen copy of the byte-at-a-time reader
// it replaced (reference_stax_reader.h). Both readers must produce the
// same event stream — kind, depth, name, decoded text, attributes,
// DOCTYPE name and internal subset — and, on malformed input, the same
// first error status: code and full message, line and column included.
//
// Inputs: generated hospital / deep-hospital / org documents, canonical
// and pretty-printed, with and without a DOCTYPE; a hand-written table of
// edge cases; every prefix of the edge cases; and byte-flip mutants of
// all of them (the parser_fuzz_test mutator). Every input runs with
// skip_whitespace_text on and off.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/workload/workloads.h"
#include "src/xml/serializer.h"
#include "src/xml/stax.h"
#include "tests/reference_stax_reader.h"

namespace smoqe::xml {
namespace {

// Renders the reader's state after one event as one comparable line.
template <typename Reader>
std::string Render(const Reader& r, StaxEvent ev) {
  std::ostringstream out;
  out << static_cast<int>(ev) << " d=" << r.depth();
  switch (ev) {
    case StaxEvent::kStartElement:
      out << " <" << std::string(r.name());
      for (const auto& a : r.attrs()) {
        out << " [" << std::string(a.name) << "]=[" << std::string(a.value)
            << "]";
      }
      out << ">";
      break;
    case StaxEvent::kEndElement:
      out << " </" << std::string(r.name()) << ">";
      break;
    case StaxEvent::kCharacters:
      out << " text=[" << std::string(r.text()) << "]";
      break;
    case StaxEvent::kEndDocument:
      out << " doctype=[" << std::string(r.doctype_name()) << "] subset=["
          << std::string(r.doctype_internal_subset()) << "]";
      break;
    case StaxEvent::kStartDocument:
      break;
  }
  return out.str();
}

// Drives both readers in lockstep to their end document or first error.
// Returns an empty string when the runs agree, else the first divergence.
std::string Diff(std::string_view input, bool skip_whitespace_text,
                 size_t* events = nullptr) {
  StaxOptions options;
  options.skip_whitespace_text = skip_whitespace_text;
  StaxReader got_reader(input, options);
  ReferenceStaxReader want_reader(input, options);
  for (size_t i = 0;; ++i) {
    Result<StaxEvent> got = got_reader.Next();
    Result<StaxEvent> want = want_reader.Next();
    if (got.ok() != want.ok()) {
      return "event " + std::to_string(i) + ": got " +
             (got.ok() ? Render(got_reader, *got) : got.status().ToString()) +
             ", want " +
             (want.ok() ? Render(want_reader, *want)
                        : want.status().ToString());
    }
    if (!got.ok()) {
      if (got.status().code() != want.status().code() ||
          got.status().message() != want.status().message()) {
        return "event " + std::to_string(i) + ": got " +
               got.status().ToString() + ", want " + want.status().ToString();
      }
      if (events != nullptr) *events = i;
      return "";
    }
    const std::string g = Render(got_reader, *got);
    const std::string w = Render(want_reader, *want);
    if (g != w) {
      return "event " + std::to_string(i) + ": got " + g + ", want " + w;
    }
    if (*got == StaxEvent::kEndDocument) {
      if (events != nullptr) *events = i;
      return "";
    }
  }
}

void ExpectSame(std::string_view input, const std::string& label) {
  for (bool skip : {true, false}) {
    const std::string d = Diff(input, skip);
    ASSERT_EQ(d, "") << label << " (skip_whitespace_text=" << skip << ")";
  }
}

// The parser_fuzz_test mutator: flips 1–3 bytes at seed-derived positions
// with bytes biased toward syntax characters.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string Mutate(const std::string& canonical, uint64_t seed) {
  static constexpr char kPool[] =
      "()[]/*|='\"<> .,:!@#$%&-+abz019\t\n\x01\x7f\xff";
  std::string s = canonical;
  const int flips = 1 + static_cast<int>(Mix(seed) % 3);
  for (int f = 0; f < flips; ++f) {
    const uint64_t r = Mix(seed * 1315423911ull + f);
    s[r % s.size()] = kPool[(r >> 32) % (sizeof(kPool) - 1)];
  }
  return s;
}

std::string WithNul(std::string s, size_t at) {
  s[at] = '\0';
  return s;
}

const std::vector<std::string>& EdgeCases() {
  static const std::vector<std::string> kCases = {
      // Well-formed.
      "<a/>",
      "<a></a>",
      "<a><b>hi</b><c/></a>",
      "<?xml version='1.0' encoding='UTF-8'?>\n<a>x</a>\n",
      "<a>x &amp; y &lt;z&gt; &quot;q&quot; &apos;s&apos;</a>",
      "<a>&#65;&#x42;&#X43;&#233;&#x20AC;&#x1F600;&#9;&#xA;&#xD;</a>",
      "<a>&#32;</a>",
      "<a> &amp; </a>",
      "<a>pre<![CDATA[ <raw> & ]]>post</a>",
      "<a><![CDATA[]]></a>",
      "<a><![CDATA[   ]]></a>",
      "<a>  <![CDATA[x]]>  </a>",
      "<a>one<!-- c -->two<!---->three</a>",
      "<a>  <!-- c -->  </a>",
      "<a><!-- only --></a>",
      "<a>x<?pi data?>y</a>",
      "<?pi before?><a/><?pi after?>",
      "<!-- c --><a/><!-- d -->",
      "<!DOCTYPE a><a/>",
      "<!DOCTYPE a SYSTEM \"a.dtd\"><a/>",
      "<!DOCTYPE a PUBLIC '-//X//Y' 'a>.dtd'><a/>",
      "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>t</a>",
      "<!DOCTYPE a [<!ELEMENT a (b)*> <!ATTLIST a x CDATA \"]\">]><a/>",
      "<!DOCTYPE a [ [nested] ]><a/>",
      "<!DOCTYPE  a  SYSTEM 'x' [<!ENTITY e 'v'>] ><a/>",
      "<a k='1' m=\"x &lt; y\" n='' o=\"it's\" p='say \"hi\"'/>",
      "<a k = '1'\n\tm\r=\"2\" ></a>",
      "<a k='&#9;&#xA;&#xD;&amp;&#x1F600;' l='plain' m='&lt;'/>",
      "<a><b/><b></b><b >x</b ></a>",
      "<a:b x:y='1'><c.d-e_f/></a:b>",
      "<a>\n  <b>\n    text\n  </b>\n</a>\n",
      "<a>\t\v\f\r\n</a>",
      "<a>\xc3\xa9\xe2\x82\xac\xa0</a>",
      "<a>x]]>y</a>",
      "\n\t <a/> \n",
      // Malformed.
      "",
      "   ",
      "text",
      "<a>",
      "<a><b></a>",
      "<a></b>",
      "</a>",
      "<a></a></a>",
      "<a/><b/>",
      "<a/>trailing",
      "x<a/>",
      "<a><![CDATA[never closed",
      "<![CDATA[x]]><a/>",
      "<a><!-- never closed",
      "<!-- never closed",
      "<a><?pi never closed",
      "<?xml version='1.0'",
      "<!DOCTYPE a [<!ELEMENT a EMPTY>",
      "<!DOCTYPE a SYSTEM 'x",
      "<!DOCTYPE a",
      "<!DOCTYPE>",
      "<a/><!DOCTYPE a>",
      "<!ELEMENT a EMPTY><a/>",
      "<a b='unterminated",
      "<a b=unquoted/>",
      "<a b></a>",
      "<a b='1' b='2'/>",
      "<a b='1' c='2' b=\"3\"/>",
      "<a b='<'/>",
      "<a b='&unknown;'/>",
      "<a></a",
      "<a><b x/></a>",
      "<a/ >",
      "<a",
      "<a x='1'",
      "<1a/>",
      "<a><1b/></a>",
      "<a></1a>",
      "<a></a >",
      "<a></a x>",
      "<a>&#xFFFFFFFFFFFF;</a>",
      "<a>&#xD800;</a>",
      "<a>&#0;</a>",
      "<a>&#x1F;</a>",
      "<a>&#;</a>",
      "<a>&#x;</a>",
      "<a>&#12a;</a>",
      "<a>&#xG;</a>",
      "<a>&nbsp;</a>",
      "<a>&amp</a>",
      "<a>&verylongentityname;</a>",
      "<a>&;</a>",
      "<a v='&#xDC00;'/>",
      "<a v='&#2;'/>",
      "<a>\n<b>\n</c>\n</a>",
      "<a>\n\n  <b x='1' x='2'/></a>",
      "<a>\r\n<b>\r\n</a>",
      WithNul("<a>xy</a>", 4),
      WithNul("<a v='x'/>", 6),
      WithNul("<a/>", 2),
      WithNul("<a x/>", 3),
      WithNul(" <a/>", 0),
      WithNul("<a/> ", 4),
      WithNul("<a><![CDATA[x]]></a>", 12),
      WithNul("<a><!--x--></a>", 7),
  };
  return kCases;
}

TEST(StaxDiffTest, EdgeCasesAgree) {
  for (const std::string& input : EdgeCases()) {
    ExpectSame(input, "edge case \"" + input + "\"");
  }
}

TEST(StaxDiffTest, EveryPrefixOfEveryEdgeCaseAgrees) {
  for (const std::string& input : EdgeCases()) {
    for (size_t len = 0; len <= input.size(); ++len) {
      ExpectSame(std::string_view(input).substr(0, len),
                 "prefix " + std::to_string(len) + " of \"" + input + "\"");
    }
  }
}

TEST(StaxDiffTest, MutantsOfEdgeCasesAgree) {
  uint64_t mutation = 0;
  for (const std::string& input : EdgeCases()) {
    if (input.empty()) continue;
    for (int i = 0; i < 300; ++i, ++mutation) {
      const std::string mutant = Mutate(input, mutation);
      ExpectSame(mutant, "mutation " + std::to_string(mutation) + " \"" +
                             mutant + "\"");
    }
  }
}

std::vector<std::pair<std::string, std::string>> GeneratedDocuments() {
  std::vector<std::pair<std::string, std::string>> out;
  SerializeOptions pretty;
  pretty.pretty = true;
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto add = [&](const std::string& kind, Result<Document> doc) {
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      const std::string tag = kind + " seed " + std::to_string(seed);
      out.emplace_back(tag + " canonical", SerializeDocument(*doc));
      out.emplace_back(tag + " pretty", SerializeDocument(*doc, pretty));
    };
    add("hospital", workload::GenHospital(seed, 3000));
    add("hospital-deep", workload::GenHospitalDeep(seed, 3000));
    add("org", workload::GenOrg(seed, 3000));
  }
  // With a DOCTYPE whose internal subset is the hospital DTD.
  out.emplace_back(
      "hospital with DOCTYPE",
      "<?xml version=\"1.0\"?>\n<!DOCTYPE hospital [" +
          std::string(workload::kHospitalDtd) + "]>\n" + out[0].second);
  return out;
}

TEST(StaxDiffTest, GeneratedDocumentsAgree) {
  for (const auto& [label, text] : GeneratedDocuments()) {
    for (bool skip : {true, false}) {
      size_t events = 0;
      ASSERT_EQ(Diff(text, skip, &events), "")
          << label << " (skip_whitespace_text=" << skip << ")";
      EXPECT_GT(events, 100u) << label;
    }
  }
}

TEST(StaxDiffTest, MutantsOfGeneratedDocumentsAgree) {
  const auto docs = GeneratedDocuments();
  uint64_t mutation = 0x5eed;
  for (const auto& [label, text] : docs) {
    // Mutate a prefix-sized window so each mutant is cheap to scan yet
    // its flips land in every kind of token.
    const std::string head = text.substr(0, 2048);
    for (int i = 0; i < 200; ++i, ++mutation) {
      ExpectSame(Mutate(head, mutation),
                 label + " mutation " + std::to_string(mutation));
    }
  }
}

}  // namespace
}  // namespace smoqe::xml
