/// \file
/// \brief Test oracle: the byte-at-a-time StAX reader as it was before the
/// zero-copy tokenizer (src/xml/stax.h), frozen verbatim apart from the
/// renaming and the fault-injection hook. It owns every string it hands
/// out and tracks line/column on every byte, so it is slow but simple;
/// xml_stax_diff_test.cc checks that the production reader produces the
/// same event stream and the same error statuses. Do not use it outside
/// tests.

#ifndef SMOQE_TESTS_REFERENCE_STAX_READER_H_
#define SMOQE_TESTS_REFERENCE_STAX_READER_H_

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/xml/stax.h"

namespace smoqe::xml {

/// Decoded attribute of a kStartElement event (owning strings).
struct ReferenceStaxAttr {
  std::string name;
  std::string value;
};

class ReferenceStaxReader {
 public:
  explicit ReferenceStaxReader(std::string_view input, StaxOptions options = {});

  /// Advances to the next event. After kEndDocument (or an error) further
  /// calls keep returning kEndDocument.
  Result<StaxEvent> Next();

  /// Element name; valid for kStartElement / kEndElement.
  const std::string& name() const { return name_; }
  /// Decoded text; valid for kCharacters.
  const std::string& text() const { return text_; }
  /// Decoded attributes; valid for kStartElement.
  const std::vector<ReferenceStaxAttr>& attrs() const { return attrs_; }

  /// Raw text between '[' and ']' of the DOCTYPE internal subset, empty if
  /// none was present. Available once the reader has moved past the prolog.
  const std::string& doctype_internal_subset() const { return doctype_; }
  /// Root element name declared by DOCTYPE, empty if none.
  const std::string& doctype_name() const { return doctype_name_; }

  /// 1-based position of the current scan point (for error messages).
  int line() const { return line_; }
  int column() const { return col_; }

  /// Current element nesting depth (after the event: a kStartElement for
  /// the root reports depth 1).
  int depth() const { return static_cast<int>(open_.size()); }

 private:
  Status Error(std::string msg) const;
  void SkipWhitespace();
  bool Consume(std::string_view lit);
  Result<std::string> ReadName();
  Status DecodeEntity(std::string* out);
  Status ReadAttrValue(std::string* out);
  Status SkipComment();
  Status SkipProcessingInstruction();
  Status ReadDoctype();
  Result<bool> ReadTextRun();  // fills text_; false if only skippable ws
  char Peek() const { return pos_ < input_.size() ? input_[pos_] : '\0'; }
  char PeekAt(size_t off) const {
    return pos_ + off < input_.size() ? input_[pos_ + off] : '\0';
  }
  void Advance();

  std::string_view input_;
  StaxOptions options_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  bool started_ = false;
  bool done_ = false;
  bool saw_root_ = false;
  bool pending_end_ = false;  // self-closing tag: emit EndElement next
  std::vector<std::string> open_;
  std::string name_;
  std::string text_;
  std::vector<ReferenceStaxAttr> attrs_;
  std::string doctype_;
  std::string doctype_name_;
};


// ---------------------------------------------------------------------------


inline ReferenceStaxReader::ReferenceStaxReader(std::string_view input,
                                                StaxOptions options)
    : input_(input), options_(options) {}

inline Status ReferenceStaxReader::Error(std::string msg) const {
  msg += " at line ";
  msg += std::to_string(line_);
  msg += ", column ";
  msg += std::to_string(col_);
  return Status::ParseError(std::move(msg));
}

inline void ReferenceStaxReader::Advance() {
  if (pos_ >= input_.size()) return;
  if (input_[pos_] == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  ++pos_;
}

inline void ReferenceStaxReader::SkipWhitespace() {
  while (pos_ < input_.size() &&
         std::isspace(static_cast<unsigned char>(input_[pos_]))) {
    Advance();
  }
}

inline bool ReferenceStaxReader::Consume(std::string_view lit) {
  if (input_.substr(pos_, lit.size()) != lit) return false;
  for (size_t i = 0; i < lit.size(); ++i) Advance();
  return true;
}

inline Result<std::string> ReferenceStaxReader::ReadName() {
  if (pos_ >= input_.size() || !IsNameStartChar(input_[pos_])) {
    return Error("expected a name");
  }
  size_t start = pos_;
  while (pos_ < input_.size() && IsNameChar(input_[pos_])) Advance();
  return std::string(input_.substr(start, pos_ - start));
}

inline Status ReferenceStaxReader::DecodeEntity(std::string* out) {
  // Caller consumed '&'.
  size_t semi = input_.find(';', pos_);
  if (semi == std::string_view::npos || semi - pos_ > 10) {
    return Error("unterminated entity reference");
  }
  std::string_view ent = input_.substr(pos_, semi - pos_);
  if (ent == "amp") {
    *out += '&';
  } else if (ent == "lt") {
    *out += '<';
  } else if (ent == "gt") {
    *out += '>';
  } else if (ent == "quot") {
    *out += '"';
  } else if (ent == "apos") {
    *out += '\'';
  } else if (!ent.empty() && ent[0] == '#') {
    int base = 10;
    std::string_view digits = ent.substr(1);
    if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
      base = 16;
      digits = digits.substr(1);
    }
    if (digits.empty()) return Error("empty character reference");
    uint32_t code = 0;
    for (char c : digits) {
      int d;
      if (c >= '0' && c <= '9') {
        d = c - '0';
      } else if (base == 16 && c >= 'a' && c <= 'f') {
        d = c - 'a' + 10;
      } else if (base == 16 && c >= 'A' && c <= 'F') {
        d = c - 'A' + 10;
      } else {
        return Error("malformed character reference");
      }
      code = code * static_cast<uint32_t>(base) + static_cast<uint32_t>(d);
      if (code > 0x10FFFF) return Error("character reference out of range");
    }
    // XML 1.0 Char production: NUL, C0 controls (other than tab/LF/CR)
    // and surrogate halves are not XML characters. Rejecting them here
    // also protects downstream consumers that treat text as
    // NUL-terminated C strings.
    if (code == 0 ||
        (code < 0x20 && code != 0x9 && code != 0xA && code != 0xD) ||
        (code >= 0xD800 && code <= 0xDFFF)) {
      return Error("character reference to an invalid XML character");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  } else {
    return Error("unknown entity '&" + std::string(ent) + ";'");
  }
  while (pos_ <= semi) Advance();
  return Status::OK();
}

inline Status ReferenceStaxReader::ReadAttrValue(std::string* out) {
  char quote = Peek();
  if (quote != '"' && quote != '\'') {
    return Error("expected quoted attribute value");
  }
  Advance();
  out->clear();
  while (true) {
    if (pos_ >= input_.size()) return Error("unterminated attribute value");
    char c = input_[pos_];
    if (c == quote) {
      Advance();
      return Status::OK();
    }
    if (c == '<') return Error("'<' not allowed in attribute value");
    if (c == '\0') return Error("NUL byte in attribute value");
    if (c == '&') {
      Advance();
      SMOQE_RETURN_IF_ERROR(DecodeEntity(out));
    } else {
      *out += c;
      Advance();
    }
  }
}

inline Status ReferenceStaxReader::SkipComment() {
  // Caller consumed "<!--".
  size_t end = input_.find("-->", pos_);
  if (end == std::string_view::npos) return Error("unterminated comment");
  while (pos_ < end + 3) Advance();
  return Status::OK();
}

inline Status ReferenceStaxReader::SkipProcessingInstruction() {
  // Caller consumed "<?".
  size_t end = input_.find("?>", pos_);
  if (end == std::string_view::npos) {
    return Error("unterminated processing instruction");
  }
  while (pos_ < end + 2) Advance();
  return Status::OK();
}

inline Status ReferenceStaxReader::ReadDoctype() {
  // Caller consumed "<!DOCTYPE".
  SkipWhitespace();
  SMOQE_ASSIGN_OR_RETURN(doctype_name_, ReadName());
  // Scan to the closing '>', capturing an internal subset if present and
  // skipping SYSTEM/PUBLIC external identifiers.
  while (true) {
    if (pos_ >= input_.size()) return Error("unterminated DOCTYPE");
    char c = Peek();
    if (c == '[') {
      Advance();
      size_t start = pos_;
      int depth = 1;
      while (pos_ < input_.size() && depth > 0) {
        if (input_[pos_] == '[') ++depth;
        if (input_[pos_] == ']') --depth;
        if (depth > 0) Advance();
      }
      if (depth != 0) return Error("unterminated DOCTYPE internal subset");
      doctype_ = std::string(input_.substr(start, pos_ - start));
      Advance();  // ']'
    } else if (c == '>') {
      Advance();
      return Status::OK();
    } else if (c == '"' || c == '\'') {
      char quote = c;
      Advance();
      while (pos_ < input_.size() && Peek() != quote) Advance();
      if (pos_ >= input_.size()) return Error("unterminated DOCTYPE literal");
      Advance();
    } else {
      Advance();
    }
  }
}

inline Result<bool> ReferenceStaxReader::ReadTextRun() {
  text_.clear();
  bool nonspace = false;
  while (pos_ < input_.size()) {
    char c = input_[pos_];
    if (c == '<') {
      if (input_.substr(pos_, 9) == "<![CDATA[") {
        for (int i = 0; i < 9; ++i) Advance();
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        for (size_t i = pos_; i < end; ++i) {
          if (!std::isspace(static_cast<unsigned char>(input_[i]))) {
            nonspace = true;
          }
        }
        text_.append(input_.substr(pos_, end - pos_));
        while (pos_ < end + 3) Advance();
        continue;
      }
      if (input_.substr(pos_, 4) == "<!--") {
        for (int i = 0; i < 4; ++i) Advance();
        SMOQE_RETURN_IF_ERROR(SkipComment());
        continue;
      }
      break;  // a tag: end of text run
    }
    if (c == '&') {
      Advance();
      SMOQE_RETURN_IF_ERROR(DecodeEntity(&text_));
      nonspace = true;  // decoded entities count as content even if space
    } else if (c == '\0') {
      // Not an XML character, and it would silently truncate the text
      // once stored as a C string in the document arena.
      return Error("NUL byte in character data");
    } else {
      if (!std::isspace(static_cast<unsigned char>(c))) nonspace = true;
      text_ += c;
      Advance();
    }
  }
  if (!nonspace && options_.skip_whitespace_text) return false;
  return !text_.empty();
}

inline Result<StaxEvent> ReferenceStaxReader::Next() {
  if (!started_) {
    started_ = true;
    return StaxEvent::kStartDocument;
  }
  if (done_) return StaxEvent::kEndDocument;
  if (pending_end_) {
    pending_end_ = false;
    name_ = open_.back();
    open_.pop_back();
    if (open_.empty()) {
      // Root closed; only misc content may follow (verified below on the
      // next call).
    }
    return StaxEvent::kEndElement;
  }

  while (true) {
    if (pos_ >= input_.size()) {
      if (!open_.empty()) {
        return Error("unexpected end of input: <" + open_.back() +
                     "> is not closed");
      }
      if (!saw_root_) return Error("document has no root element");
      done_ = true;
      return StaxEvent::kEndDocument;
    }

    char c = Peek();
    if (c != '<') {
      if (open_.empty()) {
        // Text outside the root: only whitespace is allowed.
        size_t start = pos_;
        while (pos_ < input_.size() && Peek() != '<') {
          if (!std::isspace(static_cast<unsigned char>(Peek()))) {
            return Error("content outside the root element");
          }
          Advance();
        }
        (void)start;
        continue;
      }
      SMOQE_ASSIGN_OR_RETURN(bool has_text, ReadTextRun());
      if (has_text) return StaxEvent::kCharacters;
      continue;
    }

    // '<' — dispatch on what follows.
    if (Consume("<?xml")) {
      size_t end = input_.find("?>", pos_);
      if (end == std::string_view::npos) return Error("unterminated XML declaration");
      while (pos_ < end + 2) Advance();
      continue;
    }
    if (Consume("<?")) {
      SMOQE_RETURN_IF_ERROR(SkipProcessingInstruction());
      continue;
    }
    if (Consume("<!--")) {
      SMOQE_RETURN_IF_ERROR(SkipComment());
      continue;
    }
    if (input_.substr(pos_, 9) == "<![CDATA[") {
      if (open_.empty()) return Error("CDATA outside the root element");
      SMOQE_ASSIGN_OR_RETURN(bool has_text, ReadTextRun());
      if (has_text) return StaxEvent::kCharacters;
      continue;
    }
    if (Consume("<!DOCTYPE")) {
      if (saw_root_) return Error("DOCTYPE after the root element");
      SMOQE_RETURN_IF_ERROR(ReadDoctype());
      continue;
    }
    if (Consume("</")) {
      SMOQE_ASSIGN_OR_RETURN(std::string name, ReadName());
      SkipWhitespace();
      if (!Consume(">")) return Error("malformed end tag");
      if (open_.empty()) return Error("unmatched end tag </" + name + ">");
      if (open_.back() != name) {
        return Error("mismatched end tag: expected </" + open_.back() +
                     ">, found </" + name + ">");
      }
      name_ = std::move(name);
      open_.pop_back();
      return StaxEvent::kEndElement;
    }
    // Start tag.
    Advance();  // '<'
    if (open_.empty() && saw_root_) {
      return Error("multiple root elements");
    }
    SMOQE_ASSIGN_OR_RETURN(name_, ReadName());
    attrs_.clear();
    while (true) {
      SkipWhitespace();
      char d = Peek();
      if (d == '>') {
        Advance();
        open_.push_back(name_);
        saw_root_ = true;
        return StaxEvent::kStartElement;
      }
      if (d == '/') {
        Advance();
        if (!Consume(">")) return Error("malformed self-closing tag");
        open_.push_back(name_);
        saw_root_ = true;
        pending_end_ = true;
        return StaxEvent::kStartElement;
      }
      if (d == '\0') return Error("unterminated start tag");
      ReferenceStaxAttr attr;
      SMOQE_ASSIGN_OR_RETURN(attr.name, ReadName());
      SkipWhitespace();
      if (!Consume("=")) return Error("expected '=' in attribute");
      SkipWhitespace();
      SMOQE_RETURN_IF_ERROR(ReadAttrValue(&attr.value));
      for (const ReferenceStaxAttr& existing : attrs_) {
        if (existing.name == attr.name) {
          return Error("duplicate attribute '" + attr.name + "'");
        }
      }
      attrs_.push_back(std::move(attr));
    }
  }
}

}  // namespace smoqe::xml

#endif  // SMOQE_TESTS_REFERENCE_STAX_READER_H_
