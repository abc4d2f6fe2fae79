/**
 * @file
 * Minimal self-contained JSON value type, tokenizer, parser, and
 * writer.
 *
 * Used for execution-trace (ET) files and simulator configuration.
 * Supports the full JSON grammar (objects, arrays, strings with
 * escapes, numbers, booleans, null). No external dependencies.
 *
 * Reader is the one lexer: parse() and parseFile() build a Value tree
 * with it, and fixed-schema decoders (the ET loader,
 * workload/et_json.h) read values straight into their own structs
 * without a tree. Files stream through one window; no whole-file text
 * is held.
 */
#ifndef ASTRA_COMMON_JSON_H_
#define ASTRA_COMMON_JSON_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace astra {
namespace json {

class Value;

using Array = std::vector<Value>;
/** std::map keeps keys ordered, giving deterministic serialization. */
using Object = std::map<std::string, Value>;

/** Discriminated union over the JSON value kinds. */
enum class Kind { Null, Bool, Number, String, Array, Object };

/**
 * A JSON value with value semantics.
 *
 * Accessors come in two flavours: checked (asX(), fatal() on kind
 * mismatch — user error, since these come from user-supplied files)
 * and lookup helpers with defaults (getX()).
 */
class Value
{
  public:
    Value() : kind_(Kind::Null) {}
    Value(std::nullptr_t) : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double n) : kind_(Kind::Number), num_(n) {}
    Value(int n) : kind_(Kind::Number), num_(n) {}
    Value(int64_t n) : kind_(Kind::Number), num_(double(n)) {}
    Value(uint64_t n) : kind_(Kind::Number), num_(double(n)) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(Array a)
        : kind_(Kind::Array), arr_(std::make_shared<Array>(std::move(a))) {}
    Value(Object o)
        : kind_(Kind::Object), obj_(std::make_shared<Object>(std::move(o))) {}

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Checked accessors; fatal() on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    int64_t asInt() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Mutable access (copy-on-write is not needed; shared for cheap copy,
     *  callers building documents own the unique reference). */
    Array &mutableArray();
    Object &mutableObject();

    /** Object member lookup; fatal() if not an object or key missing. */
    const Value &at(const std::string &key) const;
    /** True if this is an object containing key. */
    bool has(const std::string &key) const;

    /** Lookup with defaults (no error if missing). */
    double getNumber(const std::string &key, double dflt) const;
    int64_t getInt(const std::string &key, int64_t dflt) const;
    bool getBool(const std::string &key, bool dflt) const;
    std::string getString(const std::string &key,
                          const std::string &dflt) const;

    /**
     * Deep copy. Copy construction shares arrays/objects (cheap value
     * semantics for readers); clone() is for callers that mutate a
     * document built from another, e.g. the sweep engine overlaying
     * axis values onto a shared base config.
     */
    Value clone() const;

    /** Serialize; indent < 0 means compact single-line output. */
    std::string dump(int indent = -1) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::shared_ptr<Array> arr_;
    std::shared_ptr<Object> obj_;
};

/**
 * Pull tokenizer over a JSON document, read through a window.
 *
 * The document comes from one of two sources. A Reader built on text
 * in memory sees the whole text as a window that never refills; the
 * text must outlive the reader. A Reader from openFile() reads the
 * file with fread through a window of kWindowBytes, refilled when a
 * token reaches its end, so only one window of the file is in memory
 * at a time. Whitespace, strings, escapes, numbers and literals may
 * span a refill; a number longer than the window grows it. Pipes and
 * other unseekable files stream the same way.
 *
 * Containers are walked with begin/next pairs; each member or element
 * value must be consumed (read*() or skipValue()) before the next
 * next*() call:
 *
 *     r.beginObject();
 *     while (r.nextKey(key)) {
 *         if (key == "n")
 *             n = r.readNumber();
 *         else
 *             r.skipValue();
 *     }
 *
 * Every syntax or kind error is fatal() with the line and column,
 * counted over the whole document: both sources give the same message
 * for the same bytes.
 */
class Reader
{
  public:
    /** Bytes of a file held at a time, unless one number is longer. */
    static constexpr size_t kWindowBytes = size_t(256) << 10;

    explicit Reader(std::string_view text) : text_(text) {}

    /** Stream the document in a file; fatal() if it cannot be opened. */
    static Reader openFile(const std::string &path);

    /**
     * Kind of the next value, after skipping whitespace. A character
     * that cannot start a value reports Number, so that readNumber()
     * names the error.
     */
    Kind peek();

    /** Consume '{'; fatal() if the next value is not an object. */
    void beginObject();
    /** Read the next member's key; false once '}' is consumed. */
    bool nextKey(std::string &key);
    /** Consume '['; fatal() if the next value is not an array. */
    void beginArray();
    /** True if another element follows; false once ']' is consumed. */
    bool nextElement();

    /** Checked scalar reads; fatal() on a value of another kind. */
    void readString(std::string &out);
    std::string readString();
    double readNumber();
    bool readBool();
    void readNull();
    /** Consume one value of any kind, checking its syntax. */
    void skipValue();

    /** fatal() unless only whitespace is left. */
    void finish();

  private:
    struct FileCloser
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };

    Reader(std::FILE *file, const std::string &path);

    /** fatal() with the current line and column. */
    [[noreturn]] void error(const std::string &msg) const;
    // Inline, and defined in json.cc, the one user: they are on the
    // path of every token; only their refill is out of line.
    inline char get();
    inline void skipWs();
    bool consumeLiteral(std::string_view lit);
    [[noreturn]] void expected(const char *what, Kind got) const;
    /**
     * Drop the window's bytes before `keep`, which becomes 0, and read
     * more after the rest. False at the end of the input; always
     * false for text in memory, which has no more.
     */
    [[gnu::cold]] bool refill(size_t &keep);
    /** refill() keeping the bytes from the cursor on. */
    [[gnu::cold]] bool refill();

    std::string_view text_; //!< the window; pos_ indexes it.
    size_t pos_ = 0;
    /** Between begin*() and the first next*() of that container. */
    bool first_ = false;
    std::string skipped_; //!< reused buffer for strings skipValue() drops.

    // File source only. The file is closed at its end.
    std::unique_ptr<std::FILE, FileCloser> file_;
    std::string path_;
    /** Not zero-filled: a small file touches only the bytes it reads. */
    std::unique_ptr<char[]> window_;
    size_t windowBytes_ = 0;
    /** Line and column of the window's first byte. */
    size_t line_ = 1;
    size_t col_ = 1;
};

/** Parse a JSON document; fatal() with line/column info on syntax error. */
Value parse(const std::string &text);

/** Parse the JSON document in a file, streamed through a Reader;
 *  fatal() if unreadable. */
Value parseFile(const std::string &path);

/** Write a JSON document to a file; fatal() if unwritable. */
void writeFile(const std::string &path, const Value &v, int indent = 2);

} // namespace json
} // namespace astra

#endif // ASTRA_COMMON_JSON_H_
