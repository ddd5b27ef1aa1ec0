#include "src/xml/dom.h"

#include <gtest/gtest.h>

namespace smoqe::xml {
namespace {

TEST(DocumentBuilderTest, BuildsTreeWithIds) {
  DocumentBuilder b;
  b.StartElement("root");
  b.StartElement("x");
  b.AddText("t");
  ASSERT_TRUE(b.EndElement().ok());
  b.StartElement("y");
  ASSERT_TRUE(b.EndElement().ok());
  ASSERT_TRUE(b.EndElement().ok());
  auto doc = b.Finish();
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->num_nodes(), 4);
  EXPECT_EQ(doc->num_elements(), 3);
  const Node* root = doc->root();
  EXPECT_EQ(root->node_id, 0);
  EXPECT_EQ(root->subtree_end, 4);
  const Node* x = root->first_child;
  EXPECT_EQ(x->parent, root);
  EXPECT_TRUE(x->first_child->is_text());
  EXPECT_EQ(x->first_child->parent, x);
}

TEST(DocumentBuilderTest, SharedNameTableInternsAcrossDocuments) {
  auto names = NameTable::Create();
  DocumentBuilder b1(names);
  b1.StartElement("shared");
  ASSERT_TRUE(b1.EndElement().ok());
  auto d1 = b1.Finish();
  ASSERT_TRUE(d1.ok());

  DocumentBuilder b2(names);
  b2.StartElement("shared");
  ASSERT_TRUE(b2.EndElement().ok());
  auto d2 = b2.Finish();
  ASSERT_TRUE(d2.ok());

  EXPECT_EQ(d1->root()->label, d2->root()->label);
}

TEST(DocumentBuilderTest, AttributesAttachToOpenElement) {
  DocumentBuilder b;
  b.StartElement("e");
  b.AddAttribute("k", "v");
  b.AddAttribute("k2", "v2");
  b.StartElement("child");
  ASSERT_TRUE(b.EndElement().ok());
  ASSERT_TRUE(b.EndElement().ok());
  auto doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->num_attrs, 2u);
  EXPECT_EQ(doc->root()->first_child->num_attrs, 0u);
}

TEST(DocumentBuilderTest, FinishFailsOnUnclosedElements) {
  DocumentBuilder b;
  b.StartElement("open");
  auto doc = b.Finish();
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DocumentBuilderTest, FinishFailsWithoutRoot) {
  DocumentBuilder b;
  EXPECT_FALSE(b.Finish().ok());
}

TEST(DocumentBuilderTest, EndElementWithoutStartFails) {
  DocumentBuilder b;
  EXPECT_FALSE(b.EndElement().ok());
}

TEST(DocumentTest, DirectTextConcatenatesOnlyDirectChildren) {
  DocumentBuilder b;
  b.StartElement("a");
  b.AddText("one ");
  b.StartElement("b");
  b.AddText("nested");
  ASSERT_TRUE(b.EndElement().ok());
  b.AddText("two");
  ASSERT_TRUE(b.EndElement().ok());
  auto doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Document::DirectText(doc->root()), "one two");
}

TEST(DocumentTest, NodeLookupByIdMatchesTraversal) {
  DocumentBuilder b;
  b.StartElement("a");
  for (int i = 0; i < 5; ++i) {
    b.StartElement("c");
    ASSERT_TRUE(b.EndElement().ok());
  }
  ASSERT_TRUE(b.EndElement().ok());
  auto doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  for (int32_t id = 0; id < doc->num_nodes(); ++id) {
    EXPECT_EQ(doc->node(id)->node_id, id);
  }
}

TEST(DocumentTest, MoveKeepsPointersValid) {
  DocumentBuilder b;
  b.StartElement("a");
  b.AddText("payload");
  ASSERT_TRUE(b.EndElement().ok());
  auto doc = b.Finish();
  ASSERT_TRUE(doc.ok());
  const Node* root = doc->root();
  Document moved = doc.MoveValue();
  EXPECT_EQ(moved.root(), root);
  EXPECT_EQ(Document::DirectText(moved.root()), "payload");
}

TEST(NameTableTest, InternIsIdempotent) {
  NameTable t;
  NameId a = t.Intern("alpha");
  NameId b = t.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Intern("alpha"), a);
  EXPECT_EQ(t.Lookup("alpha"), a);
  EXPECT_EQ(t.Lookup("missing"), kNoName);
  EXPECT_EQ(t.NameOf(a), "alpha");
  EXPECT_EQ(t.size(), 2u);
}

TEST(NameTableTest, ManyNamesSurviveRehash) {
  NameTable t;
  std::vector<NameId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(t.Intern("name_" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(t.Lookup("name_" + std::to_string(i)), ids[i]);
    EXPECT_EQ(t.NameOf(ids[i]), "name_" + std::to_string(i));
  }
}

TEST(NameCacheTest, AgreesWithTheTableAcrossGrowth) {
  NameTable t;
  const NameId pre = t.Intern("preexisting");
  NameCache cache(&t);
  std::vector<NameId> ids;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 500; ++i) {
      // Views of a temporary: the cache must not keep them.
      const std::string name = "n" + std::to_string(i);
      const NameId id = cache.Intern(name);
      if (round == 0) {
        ids.push_back(id);
      } else {
        EXPECT_EQ(id, ids[i]) << name;
      }
      EXPECT_EQ(t.Lookup(name), id) << name;
    }
  }
  EXPECT_EQ(cache.Intern("preexisting"), pre);
  EXPECT_EQ(cache.Intern(""), t.Intern(""));
  EXPECT_EQ(t.size(), 502u);
}

}  // namespace
}  // namespace smoqe::xml
