// Allocation budget of the StAX tokenizer: one pass over a document,
// interning every element name through a per-scan NameCache the way the
// batch evaluator does, allocates O(depth + distinct names) — scratch
// buffers, the open-tag stack and the cache grow to the document's shape
// and are then reused — and not O(events). The binary replaces the global
// operator new with a counting one.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "src/workload/workloads.h"
#include "src/xml/name_table.h"
#include "src/xml/serializer.h"
#include "src/xml/stax.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace smoqe::xml {
namespace {

struct Pass {
  uint64_t allocations = 0;
  size_t events = 0;
  int max_depth = 0;
  size_t distinct_names = 0;
};

// One tokenizer pass with per-scan interning; counts only the pass.
Pass Scan(const std::string& text) {
  NameTable names;
  Pass out;
  const uint64_t before = g_allocations.load();
  {
    StaxReader reader(text);
    NameCache labels(&names);
    while (true) {
      Result<StaxEvent> ev = reader.Next();
      if (!ev.ok() || *ev == StaxEvent::kEndDocument) break;
      ++out.events;
      if (*ev == StaxEvent::kStartElement) {
        labels.Intern(reader.name());
        for (const StaxAttr& a : reader.attrs()) labels.Intern(a.name);
        out.max_depth = std::max(out.max_depth, reader.depth());
      }
    }
  }
  out.allocations = g_allocations.load() - before;
  out.distinct_names = names.size();
  return out;
}

std::string HospitalText(size_t target_nodes, bool pretty) {
  auto doc = workload::GenHospital(7, target_nodes);
  EXPECT_TRUE(doc.ok());
  SerializeOptions options;
  options.pretty = pretty;
  return SerializeDocument(*doc, options);
}

TEST(StaxAllocTest, PassAllocatesPerShapeNotPerEvent) {
  for (bool pretty : {false, true}) {
    const Pass small = Scan(HospitalText(1000, pretty));
    const Pass large = Scan(HospitalText(50000, pretty));
    ASSERT_GT(large.events, 10 * small.events);
    // The name table itself allocates per distinct name (its chunk and
    // index nodes); everything else grows geometrically with the depth.
    const uint64_t budget =
        16 + 4 * static_cast<uint64_t>(large.max_depth + large.distinct_names);
    EXPECT_LE(large.allocations, budget)
        << large.events << " events, depth " << large.max_depth << ", "
        << large.distinct_names << " names (pretty=" << pretty << ")";
    // Many times the events, not many times the allocations.
    EXPECT_LE(large.allocations, small.allocations + 8)
        << "small pass " << small.allocations << " (pretty=" << pretty << ")";
  }
}

TEST(StaxAllocTest, LongNamesAndValuesAreViewsNotCopies) {
  // Names, attribute values and text past the small-string buffer: a
  // reader that copied any of them per event would allocate per event.
  const std::string name = "a_rather_long_element_name_past_sso";
  const std::string attr = "an_equally_long_attribute_name";
  const std::string value = "an attribute value that does not fit inline";
  std::string text = "<doc>";
  for (int i = 0; i < 5000; ++i) {
    text += "<" + name + " " + attr + "='" + value + "'>" + value + "</" +
            name + ">";
  }
  text += "</doc>";
  const Pass pass = Scan(text);
  ASSERT_EQ(pass.events, 3u * 5000 + 3);  // + StartDocument, <doc>, </doc>
  EXPECT_LE(pass.allocations, 32u);
}

TEST(StaxAllocTest, ReferencesDecodeIntoReusedScratch) {
  // Every text and attribute value needs decoding; the scratch buffer is
  // still reused across events.
  std::string text = "<r>";
  for (int i = 0; i < 5000; ++i) {
    text += "<e k='a&amp;b'>x &lt; y<![CDATA[z]]></e>";
  }
  text += "</r>";
  const Pass pass = Scan(text);
  ASSERT_EQ(pass.events, 3u * 5000 + 3);  // + StartDocument, <r>, </r>
  EXPECT_LE(pass.allocations, 32u);
}

}  // namespace
}  // namespace smoqe::xml
