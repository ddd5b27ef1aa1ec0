#ifndef SMOQE_XML_STAX_H_
#define SMOQE_XML_STAX_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace smoqe::xml {

/// Pull-parsing event kinds, mirroring the StAX (JSR-173) vocabulary the
/// paper's streaming mode consumes.
enum class StaxEvent {
  kStartDocument,
  kStartElement,
  kEndElement,
  kCharacters,
  kEndDocument,
};

/// Attribute of a kStartElement event. `name` views the input; `value`
/// views the input unless an entity or character reference forced
/// decoding, in which case it views reader-owned scratch.
struct StaxAttr {
  std::string_view name;
  std::string_view value;
};

/// Options controlling the scanner.
struct StaxOptions {
  /// Drop text events that consist solely of whitespace (the usual choice
  /// for data-centric XML; pretty-printed inputs parse to the same tree).
  bool skip_whitespace_text = true;
};

/// \brief Zero-copy streaming XML pull reader (StAX mode).
///
/// One sequential, forward-only scan of the input; no document tree is
/// built. The DOM parser is a thin layer over this reader, so both modes
/// share one tokenizer (docs/DESIGN.md §5.3 has the contract):
///
///  * Events are views. `name()`, `text()` and `attrs()` are valid until
///    the next `Next()`. Names always view the input. Text and attribute
///    values view the input unless an entity, a character reference, a
///    CDATA section or a comment inside the text run forces decoding into
///    reader-owned scratch; `Borrowed()` tells the two apart, so a caller
///    that keeps views past `Next()` copies only decoded ones. The input
///    must outlive every view the caller keeps.
///  * Nothing is allocated per event once the scratch buffer, the
///    attribute vector and the open-tag stack (views of the input) have
///    grown to the document's shape.
///  * Line and column are not tracked: an error computes them from its
///    byte offset.
///
/// Supported syntax: XML declaration, DOCTYPE (captured, see
/// `doctype_internal_subset()`), elements, attributes, text, CDATA,
/// comments, processing instructions, and the five built-in entities plus
/// numeric character references. Whitespace is the C-locale `isspace` set.
/// Namespaces are treated as plain names (prefix kept, no URI
/// resolution) — the SMOQE data model is namespace-free, like the paper's.
class StaxReader {
 public:
  explicit StaxReader(std::string_view input, StaxOptions options = {});

  /// Advances to the next event. After kEndDocument further calls keep
  /// returning kEndDocument; after an error the reader must not be
  /// advanced again.
  Result<StaxEvent> Next();

  /// Element name; valid for kStartElement / kEndElement.
  std::string_view name() const { return name_; }
  /// Decoded text; valid for kCharacters.
  std::string_view text() const { return text_; }
  /// Decoded attributes; valid for kStartElement.
  const std::vector<StaxAttr>& attrs() const { return attrs_; }

  /// True iff `v` (a name, text or attribute value of the current event)
  /// views the input rather than reader scratch, i.e. stays valid for the
  /// input's lifetime instead of only until the next `Next()`.
  bool Borrowed(std::string_view v) const {
    const std::less<const char*> before;
    return !before(v.data(), input_.data()) &&
           !before(input_.data() + input_.size(), v.data() + v.size());
  }

  /// Raw text between '[' and ']' of the DOCTYPE internal subset, empty if
  /// none was present. Available once the reader has moved past the prolog.
  std::string_view doctype_internal_subset() const { return doctype_; }
  /// Root element name declared by DOCTYPE, empty if none.
  std::string_view doctype_name() const { return doctype_name_; }

  /// Current element nesting depth (after the event: a kStartElement for
  /// the root reports depth 1).
  int depth() const { return static_cast<int>(open_.size()); }

 private:
  /// A decoded attribute value: attrs_ index and its bytes in scratch_.
  struct Decoded {
    size_t index;
    size_t offset;
    size_t size;
  };

  Status Error(std::string msg) const;
  bool LookingAt(std::string_view lit) const {
    return input_.size() - pos_ >= lit.size() &&
           input_.compare(pos_, lit.size(), lit) == 0;
  }
  bool Consume(std::string_view lit) {
    if (!LookingAt(lit)) return false;
    pos_ += lit.size();
    return true;
  }
  void SkipWhitespace();
  Result<std::string_view> ReadName();
  Status DecodeEntity(std::string* out);
  Result<bool> ReadAttrValue(std::string_view* out);
  Status SkipPast(std::string_view terminator, const char* what);
  Status ReadDoctype();
  Result<bool> ReadTextRun();  // sets text_; false if only skippable ws
  Result<StaxEvent> ReadStartTag();

  std::string_view input_;
  StaxOptions options_;
  size_t pos_ = 0;
  bool started_ = false;
  bool done_ = false;
  bool saw_root_ = false;
  bool pending_end_ = false;  // self-closing tag: emit EndElement next
  /// Names of the open elements: byte spans of the input.
  std::vector<std::string_view> open_;
  std::string_view name_;
  std::string_view text_;
  std::vector<StaxAttr> attrs_;
  /// Decoded text of the current kCharacters event, or the decoded
  /// attribute values of the current start tag back to back.
  std::string scratch_;
  /// The current start tag's decoded values; their views are set once the
  /// tag is complete and scratch_ stops moving.
  std::vector<Decoded> decoded_attrs_;
  std::string_view doctype_;
  std::string_view doctype_name_;
};

}  // namespace smoqe::xml

#endif  // SMOQE_XML_STAX_H_
