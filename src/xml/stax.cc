#include "src/xml/stax.h"

#include <algorithm>
#include <array>
#include <cstdint>

#include "src/common/guardrail.h"

namespace smoqe::xml {

namespace {

// Byte classes, one table lookup per scanned byte. The sets are the C
// locale's: isspace, and the names of common/strings.h IsNameStartChar /
// IsNameChar (ASCII letters and '_'; plus digits, '-', '.', ':').
constexpr uint8_t kSpace = 1;      // ' ' \t \n \v \f \r
constexpr uint8_t kTextStop = 2;   // '<' '&' NUL: ends a plain text scan
constexpr uint8_t kNameStart = 4;
constexpr uint8_t kName = 8;

constexpr std::array<uint8_t, 256> MakeClasses() {
  std::array<uint8_t, 256> t{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] |= kSpace;
  }
  for (char c : {'<', '&', '\0'}) t[static_cast<unsigned char>(c)] |= kTextStop;
  for (int c = 'a'; c <= 'z'; ++c) t[c] |= kNameStart | kName;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] |= kNameStart | kName;
  t['_'] |= kNameStart | kName;
  for (int c = '0'; c <= '9'; ++c) t[c] |= kName;
  for (char c : {'-', '.', ':'}) t[static_cast<unsigned char>(c)] |= kName;
  return t;
}

constexpr std::array<uint8_t, 256> kClasses = MakeClasses();

inline uint8_t ClassOf(char c) { return kClasses[static_cast<unsigned char>(c)]; }

}  // namespace

StaxReader::StaxReader(std::string_view input, StaxOptions options)
    : input_(input), options_(options) {}

Status StaxReader::Error(std::string msg) const {
  // Positions are derived, not tracked: 1-based line = newlines before the
  // scan point + 1; column = bytes since the last newline + 1.
  const std::string_view seen = input_.substr(0, pos_);
  const size_t last_nl = seen.rfind('\n');
  const size_t line = 1 + std::count(seen.begin(), seen.end(), '\n');
  const size_t col =
      last_nl == std::string_view::npos ? pos_ + 1 : pos_ - last_nl;
  msg += " at line ";
  msg += std::to_string(line);
  msg += ", column ";
  msg += std::to_string(col);
  return Status::ParseError(std::move(msg));
}

void StaxReader::SkipWhitespace() {
  while (pos_ < input_.size() && (ClassOf(input_[pos_]) & kSpace)) ++pos_;
}

Result<std::string_view> StaxReader::ReadName() {
  if (pos_ >= input_.size() || !(ClassOf(input_[pos_]) & kNameStart)) {
    return Error("expected a name");
  }
  const size_t start = pos_;
  ++pos_;
  while (pos_ < input_.size() && (ClassOf(input_[pos_]) & kName)) ++pos_;
  return input_.substr(start, pos_ - start);
}

Status StaxReader::DecodeEntity(std::string* out) {
  // Caller consumed '&'. A reference is at most 10 bytes before its ';'.
  const size_t semi = input_.substr(pos_, 11).find(';');
  if (semi == std::string_view::npos) {
    return Error("unterminated entity reference");
  }
  std::string_view ent = input_.substr(pos_, semi);
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
  pos_ += semi + 1;
  return Status::OK();
}

Result<bool> StaxReader::ReadAttrValue(std::string_view* out) {
  const char quote = pos_ < input_.size() ? input_[pos_] : '\0';
  if (quote != '"' && quote != '\'') {
    return Error("expected quoted attribute value");
  }
  ++pos_;
  // Fast path: the value is a view of the input unless a reference needs
  // decoding; then it is rebuilt in scratch_ from `seg` on.
  bool decoded = false;
  size_t seg = pos_;
  while (pos_ < input_.size()) {
    const char c = input_[pos_];
    if (c == quote) {
      if (decoded) {
        scratch_.append(input_.data() + seg, pos_ - seg);
      } else {
        *out = input_.substr(seg, pos_ - seg);
      }
      ++pos_;
      return decoded;
    }
    if (c == '<') return Error("'<' not allowed in attribute value");
    if (c == '\0') return Error("NUL byte in attribute value");
    if (c == '&') {
      scratch_.append(input_.data() + seg, pos_ - seg);
      decoded = true;
      ++pos_;
      SMOQE_RETURN_IF_ERROR(DecodeEntity(&scratch_));
      seg = pos_;
      continue;
    }
    ++pos_;
  }
  return Error("unterminated attribute value");
}

Status StaxReader::SkipPast(std::string_view terminator, const char* what) {
  const size_t end = input_.find(terminator, pos_);
  if (end == std::string_view::npos) {
    return Error(std::string("unterminated ") + what);
  }
  pos_ = end + terminator.size();
  return Status::OK();
}

Status StaxReader::ReadDoctype() {
  // Caller consumed "<!DOCTYPE".
  SkipWhitespace();
  SMOQE_ASSIGN_OR_RETURN(doctype_name_, ReadName());
  // Scan to the closing '>', capturing an internal subset if present and
  // skipping SYSTEM/PUBLIC external identifiers.
  while (true) {
    if (pos_ >= input_.size()) return Error("unterminated DOCTYPE");
    const char c = input_[pos_];
    if (c == '[') {
      ++pos_;
      const size_t start = pos_;
      int depth = 1;
      for (; pos_ < input_.size(); ++pos_) {
        if (input_[pos_] == '[') ++depth;
        if (input_[pos_] == ']' && --depth == 0) break;
      }
      if (depth != 0) return Error("unterminated DOCTYPE internal subset");
      doctype_ = input_.substr(start, pos_ - start);
      ++pos_;  // ']'
    } else if (c == '>') {
      ++pos_;
      return Status::OK();
    } else if (c == '"' || c == '\'') {
      const size_t end = input_.find(c, pos_ + 1);
      if (end == std::string_view::npos) {
        pos_ = input_.size();
        return Error("unterminated DOCTYPE literal");
      }
      pos_ = end + 1;
    } else {
      ++pos_;
    }
  }
}

Result<bool> StaxReader::ReadTextRun() {
  // A text run extends over character data, references, CDATA sections
  // and comments up to the next tag. The common case — plain character
  // data — is one table-driven scan and a view of the input. The run is
  // rebuilt in scratch_ only once a reference, CDATA section or comment
  // splits it; `seg` is the start of the raw bytes not yet appended.
  const char* const in = input_.data();
  const size_t n = input_.size();
  bool nonspace = false;
  bool decoded = false;
  size_t seg = pos_;
  size_t p = pos_;
  auto append_segment = [&] {
    if (!decoded) {
      scratch_.clear();
      decoded = true;
    }
    scratch_.append(in + seg, p - seg);
  };
  while (true) {
    while (p < n) {
      const uint8_t k = ClassOf(in[p]);
      if (k & kTextStop) break;
      nonspace |= !(k & kSpace);
      ++p;
    }
    pos_ = p;
    if (p >= n) break;
    if (in[p] == '<') {
      if (LookingAt("<![CDATA[")) {
        append_segment();
        pos_ = p + 9;
        const size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        for (size_t i = pos_; i < end; ++i) {
          nonspace |= !(ClassOf(in[i]) & kSpace);
        }
        scratch_.append(in + pos_, end - pos_);
        p = seg = end + 3;
        continue;
      }
      if (LookingAt("<!--")) {
        append_segment();
        pos_ = p + 4;
        SMOQE_RETURN_IF_ERROR(SkipPast("-->", "comment"));
        p = seg = pos_;
        continue;
      }
      break;  // a tag: end of text run
    }
    if (in[p] == '&') {
      append_segment();
      ++pos_;
      SMOQE_RETURN_IF_ERROR(DecodeEntity(&scratch_));
      nonspace = true;  // decoded entities count as content even if space
      p = seg = pos_;
      continue;
    }
    // Not an XML character, and it would silently truncate the text once
    // stored as a C string in the document arena.
    return Error("NUL byte in character data");
  }
  if (decoded) {
    append_segment();
    text_ = scratch_;
  } else {
    text_ = input_.substr(seg, p - seg);
  }
  if (!nonspace && options_.skip_whitespace_text) return false;
  return !text_.empty();
}

Result<StaxEvent> StaxReader::ReadStartTag() {
  ++pos_;  // '<'
  if (open_.empty() && saw_root_) {
    return Error("multiple root elements");
  }
  SMOQE_ASSIGN_OR_RETURN(name_, ReadName());
  attrs_.clear();
  scratch_.clear();
  decoded_attrs_.clear();
  while (true) {
    SkipWhitespace();
    const char d = pos_ < input_.size() ? input_[pos_] : '\0';
    if (d == '>') {
      ++pos_;
      break;
    }
    if (d == '/') {
      ++pos_;
      if (!Consume(">")) return Error("malformed self-closing tag");
      pending_end_ = true;
      break;
    }
    if (d == '\0') return Error("unterminated start tag");
    StaxAttr attr;
    SMOQE_ASSIGN_OR_RETURN(attr.name, ReadName());
    SkipWhitespace();
    if (!Consume("=")) return Error("expected '=' in attribute");
    SkipWhitespace();
    const size_t offset = scratch_.size();
    SMOQE_ASSIGN_OR_RETURN(bool decoded, ReadAttrValue(&attr.value));
    for (const StaxAttr& existing : attrs_) {
      if (existing.name == attr.name) {
        return Error("duplicate attribute '" + std::string(attr.name) + "'");
      }
    }
    if (decoded) {
      decoded_attrs_.push_back(
          Decoded{attrs_.size(), offset, scratch_.size() - offset});
    }
    attrs_.push_back(attr);
  }
  for (const Decoded& d : decoded_attrs_) {
    attrs_[d.index].value = std::string_view(scratch_).substr(d.offset, d.size);
  }
  open_.push_back(name_);
  saw_root_ = true;
  return StaxEvent::kStartElement;
}

Result<StaxEvent> StaxReader::Next() {
  if (fault::At("stax.read")) {
    return Status::IOError("injected tokenizer fault (stax.read)");
  }
  if (!started_) {
    started_ = true;
    return StaxEvent::kStartDocument;
  }
  if (done_) return StaxEvent::kEndDocument;
  if (pending_end_) {
    pending_end_ = false;
    name_ = open_.back();
    open_.pop_back();
    return StaxEvent::kEndElement;
  }

  while (true) {
    if (pos_ >= input_.size()) {
      if (!open_.empty()) {
        return Error("unexpected end of input: <" + std::string(open_.back()) +
                     "> is not closed");
      }
      if (!saw_root_) return Error("document has no root element");
      done_ = true;
      return StaxEvent::kEndDocument;
    }

    if (input_[pos_] != '<') {
      if (open_.empty()) {
        // Text outside the root: only whitespace is allowed.
        while (pos_ < input_.size() && input_[pos_] != '<') {
          if (!(ClassOf(input_[pos_]) & kSpace)) {
            return Error("content outside the root element");
          }
          ++pos_;
        }
        continue;
      }
      SMOQE_ASSIGN_OR_RETURN(bool has_text, ReadTextRun());
      if (has_text) return StaxEvent::kCharacters;
      continue;
    }

    // '<' — dispatch on what follows.
    const char next = pos_ + 1 < input_.size() ? input_[pos_ + 1] : '\0';
    if (next == '/') {
      pos_ += 2;
      SMOQE_ASSIGN_OR_RETURN(std::string_view name, ReadName());
      SkipWhitespace();
      if (!Consume(">")) return Error("malformed end tag");
      if (open_.empty()) {
        return Error("unmatched end tag </" + std::string(name) + ">");
      }
      if (open_.back() != name) {
        return Error("mismatched end tag: expected </" +
                     std::string(open_.back()) + ">, found </" +
                     std::string(name) + ">");
      }
      name_ = name;
      open_.pop_back();
      return StaxEvent::kEndElement;
    }
    if (next == '?') {
      if (Consume("<?xml")) {
        SMOQE_RETURN_IF_ERROR(SkipPast("?>", "XML declaration"));
      } else {
        pos_ += 2;
        SMOQE_RETURN_IF_ERROR(SkipPast("?>", "processing instruction"));
      }
      continue;
    }
    if (next == '!') {
      if (Consume("<!--")) {
        SMOQE_RETURN_IF_ERROR(SkipPast("-->", "comment"));
        continue;
      }
      if (LookingAt("<![CDATA[")) {
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
    }
    return ReadStartTag();
  }
}

}  // namespace smoqe::xml
