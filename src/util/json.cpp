#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace mbcr::json {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error(std::string("json: value is not ") + wanted);
}

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double d) {
  if (!std::isfinite(d)) {
    os << "null";  // JSON has no inf/nan literal
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, d);
  os.write(buf, end - buf);
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos));
  }

  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!done() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                       peek() == '\r')) {
      ++pos;
    }
  }

  void expect(char c) {
    if (done() || peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    if (done()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object out;
    skip_ws();
    if (!done() && peek() == '}') {
      ++pos;
      return Value(std::move(out));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (done()) fail("unterminated object");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return Value(std::move(out));
    }
  }

  Value parse_array() {
    expect('[');
    Array out;
    skip_ws();
    if (!done() && peek() == ']') {
      ++pos;
      return Value(std::move(out));
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      if (done()) fail("unterminated array");
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return Value(std::move(out));
    }
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos + 4 > text.size()) fail("truncated \\u escape");
    std::uint32_t cp = 0;
    const auto [end, ec] =
        std::from_chars(text.data() + pos, text.data() + pos + 4, cp, 16);
    if (ec != std::errc() || end != text.data() + pos + 4) {
      fail("bad \\u escape");
    }
    pos += 4;
    return cp;
  }

  std::string parse_string() {
    if (done() || peek() != '"') fail("expected string");
    ++pos;
    std::string out;
    while (true) {
      if (done()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
        out += c;
        continue;
      }
      if (done()) fail("unterminated escape");
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          // Combine a surrogate pair when one follows; otherwise keep the
          // lone surrogate's code unit.
          if (cp >= 0xd800 && cp <= 0xdbff &&
              text.substr(pos, 2) == "\\u") {
            const std::size_t saved = pos;
            pos += 2;
            const std::uint32_t low = parse_hex4();
            if (low >= 0xdc00 && low <= 0xdfff) {
              cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
            } else {
              pos = saved;  // not a pair; re-parse as its own escape
            }
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos;
    if (!done() && peek() == '-') ++pos;
    while (!done() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                       peek() == 'e' || peek() == 'E' || peek() == '+' ||
                       peek() == '-')) {
      ++pos;
    }
    double d = 0;
    const auto [end, ec] =
        std::from_chars(text.data() + start, text.data() + pos, d);
    if (ec != std::errc() || end != text.data() + pos || pos == start) {
      pos = start;
      fail("bad number");
    }
    return Value(d);
  }
};

}  // namespace

void integer_range_error(const std::string& what, double got,
                         const std::string& lo, const std::string& hi) {
  std::ostringstream os;
  write_number(os, got);
  throw std::invalid_argument(what + ": expected an integer in [" + lo +
                              ", " + hi + "], got " + os.str());
}

bool Value::as_bool() const {
  if (!is_bool()) type_error("a bool");
  return std::get<bool>(data_);
}

double Value::as_number() const {
  if (!is_number()) type_error("a number");
  return std::get<double>(data_);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error("a string");
  return std::get<std::string>(data_);
}

const Array& Value::as_array() const {
  if (!is_array()) type_error("an array");
  return std::get<Array>(data_);
}

const Object& Value::as_object() const {
  if (!is_object()) type_error("an object");
  return std::get<Object>(data_);
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Member& m : std::get<Object>(data_)) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (!v) throw std::runtime_error("json: missing member '" + std::string(key) + "'");
  return *v;
}

void Value::set(std::string key, Value value) {
  if (is_null()) data_ = Object{};
  if (!is_object()) type_error("an object");
  Object& obj = std::get<Object>(data_);
  for (Member& m : obj) {
    if (m.first == key) {
      m.second = std::move(value);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(value));
}

void Value::write_impl(std::ostream& os, int indent, int depth) const {
  const auto pad = [&](int d) {
    if (indent > 0) {
      os << '\n';
      for (int i = 0; i < indent * d; ++i) os << ' ';
    }
  };
  if (is_null()) {
    os << "null";
  } else if (is_bool()) {
    os << (std::get<bool>(data_) ? "true" : "false");
  } else if (is_number()) {
    write_number(os, std::get<double>(data_));
  } else if (is_string()) {
    write_escaped(os, std::get<std::string>(data_));
  } else if (is_array()) {
    const Array& arr = std::get<Array>(data_);
    if (arr.empty()) {
      os << "[]";
      return;
    }
    bool all_numbers = true;
    for (const Value& v : arr) all_numbers &= v.is_number();
    os << '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) os << ',';
      if (all_numbers) {
        if (i) os << ' ';
      } else {
        pad(depth + 1);
      }
      arr[i].write_impl(os, indent, depth + 1);
    }
    if (!all_numbers) pad(depth);
    os << ']';
  } else {
    const Object& obj = std::get<Object>(data_);
    if (obj.empty()) {
      os << "{}";
      return;
    }
    os << '{';
    for (std::size_t i = 0; i < obj.size(); ++i) {
      if (i) os << ',';
      pad(depth + 1);
      write_escaped(os, obj[i].first);
      os << (indent > 0 ? ": " : ":");
      obj[i].second.write_impl(os, indent, depth + 1);
    }
    pad(depth);
    os << '}';
  }
}

void Value::write(std::ostream& os, int indent) const {
  write_impl(os, indent, 0);
}

std::string Value::dump(int indent) const {
  std::ostringstream ss;
  write(ss, indent);
  return ss.str();
}

Value parse(std::string_view text) {
  Parser parser{text};
  Value out = parser.parse_value();
  parser.skip_ws();
  if (!parser.done()) parser.fail("trailing content");
  return out;
}

}  // namespace mbcr::json
