#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/logging.h"

namespace astra {
namespace json {

namespace {

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Number: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

} // namespace

bool
Value::asBool() const
{
    ASTRA_USER_CHECK(kind_ == Kind::Bool,
                     "json: expected bool, got %s", kindName(kind_));
    return bool_;
}

double
Value::asNumber() const
{
    ASTRA_USER_CHECK(kind_ == Kind::Number,
                     "json: expected number, got %s", kindName(kind_));
    return num_;
}

int64_t
Value::asInt() const
{
    return static_cast<int64_t>(std::llround(asNumber()));
}

const std::string &
Value::asString() const
{
    ASTRA_USER_CHECK(kind_ == Kind::String,
                     "json: expected string, got %s", kindName(kind_));
    return str_;
}

const Array &
Value::asArray() const
{
    ASTRA_USER_CHECK(kind_ == Kind::Array,
                     "json: expected array, got %s", kindName(kind_));
    return *arr_;
}

const Object &
Value::asObject() const
{
    ASTRA_USER_CHECK(kind_ == Kind::Object,
                     "json: expected object, got %s", kindName(kind_));
    return *obj_;
}

Array &
Value::mutableArray()
{
    if (kind_ != Kind::Array) {
        kind_ = Kind::Array;
        arr_ = std::make_shared<Array>();
    }
    return *arr_;
}

Object &
Value::mutableObject()
{
    if (kind_ != Kind::Object) {
        kind_ = Kind::Object;
        obj_ = std::make_shared<Object>();
    }
    return *obj_;
}

const Value &
Value::at(const std::string &key) const
{
    const Object &obj = asObject();
    auto it = obj.find(key);
    ASTRA_USER_CHECK(it != obj.end(), "json: missing key '%s'", key.c_str());
    return it->second;
}

bool
Value::has(const std::string &key) const
{
    return kind_ == Kind::Object && obj_->count(key) > 0;
}

double
Value::getNumber(const std::string &key, double dflt) const
{
    return has(key) ? at(key).asNumber() : dflt;
}

int64_t
Value::getInt(const std::string &key, int64_t dflt) const
{
    return has(key) ? at(key).asInt() : dflt;
}

bool
Value::getBool(const std::string &key, bool dflt) const
{
    return has(key) ? at(key).asBool() : dflt;
}

std::string
Value::getString(const std::string &key, const std::string &dflt) const
{
    return has(key) ? at(key).asString() : dflt;
}

namespace {

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
numberToString(std::string &out, double n)
{
    if (n == std::floor(n) && std::abs(n) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(n));
        out += buf;
    } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", n);
        out += buf;
    }
}

} // namespace

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent >= 0) {
            out += '\n';
            out.append(static_cast<size_t>(indent * d), ' ');
        }
    };

    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Number:
        numberToString(out, num_);
        break;
      case Kind::String:
        escapeString(out, str_);
        break;
      case Kind::Array: {
        if (arr_->empty()) {
            out += "[]";
            break;
        }
        out += '[';
        bool first = true;
        for (const Value &v : *arr_) {
            if (!first)
                out += indent >= 0 ? "," : ",";
            first = false;
            newline(depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        if (obj_->empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, v] : *obj_) {
            if (!first)
                out += ",";
            first = false;
            newline(depth + 1);
            escapeString(out, key);
            out += indent >= 0 ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

Value
Value::clone() const
{
    switch (kind_) {
      case Kind::Array: {
        Array copy;
        copy.reserve(arr_->size());
        for (const Value &v : *arr_)
            copy.push_back(v.clone());
        return Value(std::move(copy));
      }
      case Kind::Object: {
        Object copy;
        for (const auto &[key, v] : *obj_)
            copy.emplace(key, v.clone());
        return Value(std::move(copy));
      }
      default:
        // Scalars hold no shared state; plain copy is already deep.
        return *this;
    }
}

namespace {

/** Newlines in [p, end). A byte counter per 64-byte block lets the
 *  compiler vectorize the count. */
size_t
countNewlines(const char *p, const char *end)
{
    size_t n = 0;
    for (; end - p >= 64; p += 64) {
        unsigned char block = 0;
        for (int i = 0; i < 64; ++i)
            block += p[i] == '\n';
        n += block;
    }
    for (; p != end; ++p)
        n += *p == '\n';
    return n;
}

} // namespace

Reader::Reader(std::FILE *file, const std::string &path)
    : file_(file), path_(path),
      window_(std::make_unique_for_overwrite<char[]>(kWindowBytes)),
      windowBytes_(kWindowBytes)
{
}

Reader
Reader::openFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASTRA_USER_CHECK(f != nullptr, "json: cannot open '%s'", path.c_str());
    return Reader(f, path);
}

bool
Reader::refill(size_t &keep)
{
    if (file_ == nullptr)
        return false;
    // Count the dropped bytes' lines, so errors name document lines.
    const char *drop_end = text_.data() + keep;
    if (size_t lines = countNewlines(text_.data(), drop_end)) {
        line_ += lines;
        const char *after_nl = drop_end;
        while (after_nl[-1] != '\n')
            --after_nl;
        col_ = 1 + size_t(drop_end - after_nl);
    } else {
        col_ += keep;
    }

    size_t rest = text_.size() - keep;
    if (rest == windowBytes_) { // a token fills the window: grow it.
        auto bigger = std::make_unique_for_overwrite<char[]>(2 * rest);
        std::memcpy(bigger.get(), window_.get(), rest);
        window_ = std::move(bigger);
        windowBytes_ = 2 * rest;
    } else if (rest > 0) {
        std::memmove(window_.get(), text_.data() + keep, rest);
    }
    pos_ -= keep;
    keep = 0;
    size_t want = windowBytes_ - rest;
    size_t got = std::fread(window_.get() + rest, 1, want, file_.get());
    ASTRA_USER_CHECK(!std::ferror(file_.get()), "json: cannot read '%s'",
                     path_.c_str());
    text_ = std::string_view(window_.get(), rest + got);
    if (got < want)
        file_.reset(); // the end of the file.
    return got > 0;
}

bool
Reader::refill()
{
    size_t keep = pos_;
    return refill(keep);
}

Kind
Reader::peek()
{
    skipWs();
    switch (pos_ < text_.size() ? text_[pos_] : '\0') {
      case '{': return Kind::Object;
      case '[': return Kind::Array;
      case '"': return Kind::String;
      case 't':
      case 'f': return Kind::Bool;
      case 'n': return Kind::Null;
      default: return Kind::Number;
    }
}

void
Reader::beginObject()
{
    if (Kind k = peek(); k != Kind::Object)
        expected("object", k);
    ++pos_;
    first_ = true;
}

bool
Reader::nextKey(std::string &key)
{
    skipWs();
    if (first_) {
        first_ = false;
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return false;
        }
    } else {
        char c = get();
        if (c == '}')
            return false;
        if (c != ',')
            error("expected ',' or '}' in object");
        skipWs();
    }
    if (pos_ >= text_.size() || text_[pos_] != '"')
        error("expected object key string");
    readString(key);
    skipWs();
    if (get() != ':')
        error("expected ':'");
    return true;
}

void
Reader::beginArray()
{
    if (Kind k = peek(); k != Kind::Array)
        expected("array", k);
    ++pos_;
    first_ = true;
}

bool
Reader::nextElement()
{
    skipWs();
    if (first_) {
        first_ = false;
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return false;
        }
        return true;
    }
    char c = get();
    if (c == ']')
        return false;
    if (c != ',')
        error("expected ',' or ']' in array");
    return true;
}

void
Reader::readString(std::string &out)
{
    if (Kind k = peek(); k != Kind::String)
        expected("string", k);
    ++pos_;
    out.clear();
    while (true) {
        // Copy the run up to the next quote or escape in one append.
        size_t run = pos_;
        while (pos_ < text_.size() && text_[pos_] != '"' &&
               text_[pos_] != '\\')
            ++pos_;
        out.append(text_.data() + run, pos_ - run);
        if (pos_ == text_.size() && refill())
            continue;
        if (get() == '"')
            return;
        char e = get();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
                char h = get();
                code <<= 4;
                if (h >= '0' && h <= '9')
                    code += unsigned(h - '0');
                else if (h >= 'a' && h <= 'f')
                    code += unsigned(h - 'a' + 10);
                else if (h >= 'A' && h <= 'F')
                    code += unsigned(h - 'A' + 10);
                else
                    error("invalid \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only;
            // surrogate pairs are not needed for ET files).
            if (code < 0x80) {
                out += char(code);
            } else if (code < 0x800) {
                out += char(0xC0 | (code >> 6));
                out += char(0x80 | (code & 0x3F));
            } else {
                out += char(0xE0 | (code >> 12));
                out += char(0x80 | ((code >> 6) & 0x3F));
                out += char(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            error("invalid escape character");
        }
    }
}

std::string
Reader::readString()
{
    std::string out;
    readString(out);
    return out;
}

namespace {

/** End of the JSON number grammar's longest match at @p first. */
const char *
scanNumber(const char *first, const char *end)
{
    const char *last = first;
    auto is = [&](char a, char b) {
        return last != end && (*last == a || *last == b);
    };
    auto digits = [&] {
        while (last != end && *last >= '0' && *last <= '9')
            ++last;
    };
    if (is('-', '-'))
        ++last;
    digits();
    if (is('.', '.')) {
        ++last;
        digits();
    }
    if (is('e', 'E')) {
        ++last;
        if (is('+', '-'))
            ++last;
        digits();
    }
    return last;
}

} // namespace

double
Reader::readNumber()
{
    if (Kind k = peek(); k != Kind::Number)
        expected("number", k);
    // from_chars needs the number whole in the window: one that runs
    // to the window's end is scanned again after a refill keeps it.
    auto end = [this] { return text_.data() + text_.size(); };
    size_t first = pos_;
    const char *last = scanNumber(text_.data() + first, end());
    while (last == end() && refill(first))
        last = scanNumber(text_.data() + first, end());
    const char *begin = text_.data() + first;
    pos_ = static_cast<size_t>(last - text_.data());
    if (last == begin)
        error("invalid number");
    // from_chars is correctly rounded like strtod, but locale-free, and
    // it keeps subnormals that strtod flags ERANGE. Values that
    // overflow to infinity or underflow to zero are still errors.
    double v = 0.0;
    auto [ptr, ec] = std::from_chars(begin, last, v);
    if (ec != std::errc() || ptr != last)
        error("invalid number '" + std::string(begin, last) + "'");
    return v;
}

bool
Reader::readBool()
{
    if (Kind k = peek(); k != Kind::Bool)
        expected("bool", k);
    if (consumeLiteral("true"))
        return true;
    if (consumeLiteral("false"))
        return false;
    error("invalid literal");
}

void
Reader::readNull()
{
    if (Kind k = peek(); k != Kind::Null)
        expected("null", k);
    if (!consumeLiteral("null"))
        error("invalid literal");
}

void
Reader::skipValue()
{
    switch (peek()) {
      case Kind::Object:
        beginObject();
        while (nextKey(skipped_))
            skipValue();
        break;
      case Kind::Array:
        beginArray();
        while (nextElement())
            skipValue();
        break;
      case Kind::String: readString(skipped_); break;
      case Kind::Number: readNumber(); break;
      case Kind::Bool: readBool(); break;
      case Kind::Null: readNull(); break;
    }
}

void
Reader::finish()
{
    skipWs();
    if (pos_ != text_.size())
        error("trailing characters after JSON document");
}

void
Reader::error(const std::string &msg) const
{
    size_t line = line_, col = col_;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
            ++line;
            col = 1;
        } else {
            ++col;
        }
    }
    fatal("json parse error at line %zu col %zu: %s", line, col,
          msg.c_str());
}

inline char
Reader::get()
{
    if (pos_ >= text_.size() && !refill())
        error("unexpected end of input");
    return text_[pos_++];
}

inline void
Reader::skipWs()
{
    do {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    } while (pos_ == text_.size() && refill());
}

bool
Reader::consumeLiteral(std::string_view lit)
{
    while (text_.size() - pos_ < lit.size() && refill()) {
    }
    if (text_.substr(pos_).starts_with(lit)) {
        pos_ += lit.size();
        return true;
    }
    return false;
}

void
Reader::expected(const char *what, Kind got) const
{
    error(std::string("expected ") + what + ", got " + kindName(got));
}

namespace {

Value
readValue(Reader &r)
{
    switch (r.peek()) {
      case Kind::Object: {
        Object obj;
        std::string key;
        r.beginObject();
        while (r.nextKey(key))
            obj[key] = readValue(r); // a repeated key: the last wins.
        return Value(std::move(obj));
      }
      case Kind::Array: {
        Array arr;
        r.beginArray();
        while (r.nextElement())
            arr.push_back(readValue(r));
        return Value(std::move(arr));
      }
      case Kind::String: return Value(r.readString());
      case Kind::Number: return Value(r.readNumber());
      case Kind::Bool: return Value(r.readBool());
      case Kind::Null: r.readNull(); return Value();
    }
    return Value();
}

Value
readDocument(Reader &r)
{
    Value v = readValue(r);
    r.finish();
    return v;
}

} // namespace

Value
parse(const std::string &text)
{
    Reader r(text);
    return readDocument(r);
}

Value
parseFile(const std::string &path)
{
    Reader r = Reader::openFile(path);
    return readDocument(r);
}

void
writeFile(const std::string &path, const Value &v, int indent)
{
    std::ofstream out(path);
    ASTRA_USER_CHECK(out.good(), "json: cannot write '%s'", path.c_str());
    out << v.dump(indent) << "\n";
}

} // namespace json
} // namespace astra
