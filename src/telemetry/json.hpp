// Minimal JSON value, writer, and parser — the one serialization the
// observability layer speaks. Three consumers share it: the event
// journal's JSON-lines export, the bench reporter (BENCH_*.json, the
// machine-readable perf trajectory), and the schema validator that CI
// runs over every emitted bench file. Deliberately small: no SAX, no
// streaming, no number-type zoo (numbers are doubles, which covers every
// counter and latency this repo emits, except that an integer also keeps
// its exact int64 value so ids and nanosecond stamps above 2^53 survive a
// round trip); objects preserve insertion order
// so emitted files diff cleanly across runs and PRs.
#ifndef XRP_TELEMETRY_JSON_HPP
#define XRP_TELEMETRY_JSON_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xrp::json {

class Value {
public:
    enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

    Value() = default;
    Value(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
    Value(bool b) : type_(Type::kBool), bool_(b) {}
    Value(double d) : type_(Type::kNumber), num_(d) {}
    Value(int i) : Value(static_cast<int64_t>(i)) {}
    Value(int64_t i)
        : type_(Type::kNumber), num_(static_cast<double>(i)), int_(i),
          exact_(true) {}
    Value(uint64_t u)
        : type_(Type::kNumber), num_(static_cast<double>(u)),
          int_(static_cast<int64_t>(u)), exact_(u <= INT64_MAX) {}
    Value(const char* s) : type_(Type::kString), str_(s) {}
    Value(std::string s) : type_(Type::kString), str_(std::move(s)) {}

    static Value array() {
        Value v;
        v.type_ = Type::kArray;
        return v;
    }
    static Value object() {
        Value v;
        v.type_ = Type::kObject;
        return v;
    }

    Type type() const { return type_; }
    bool is_null() const { return type_ == Type::kNull; }
    bool is_bool() const { return type_ == Type::kBool; }
    bool is_number() const { return type_ == Type::kNumber; }
    bool is_string() const { return type_ == Type::kString; }
    bool is_array() const { return type_ == Type::kArray; }
    bool is_object() const { return type_ == Type::kObject; }

    bool as_bool() const { return bool_; }
    double as_number() const { return num_; }
    // The number as an exact integer: an integer literal or value that
    // fits int64_t; nullopt for anything else (a fraction, or a double
    // too large to be exact).
    std::optional<int64_t> as_int() const {
        if (exact_) return int_;
        return std::nullopt;
    }
    const std::string& as_string() const { return str_; }

    // ---- arrays --------------------------------------------------------
    void push_back(Value v) {
        type_ = Type::kArray;
        arr_.push_back(std::move(v));
    }
    const std::vector<Value>& items() const { return arr_; }
    size_t size() const {
        return type_ == Type::kObject ? obj_.size() : arr_.size();
    }

    // ---- objects (insertion-ordered) -----------------------------------
    // Sets (or replaces) a member; returns a reference to the stored value.
    Value& set(const std::string& key, Value v);
    // Member lookup; nullptr when absent or not an object.
    const Value* find(const std::string& key) const;
    const std::vector<std::pair<std::string, Value>>& members() const {
        return obj_;
    }

    // Convenience typed getters on objects.
    std::optional<double> get_number(const std::string& key) const {
        const Value* v = find(key);
        if (v == nullptr || !v->is_number()) return std::nullopt;
        return v->as_number();
    }
    std::optional<std::string> get_string(const std::string& key) const {
        const Value* v = find(key);
        if (v == nullptr || !v->is_string()) return std::nullopt;
        return v->as_string();
    }

    // ---- serialization ------------------------------------------------
    // Compact single-line JSON.
    std::string dump() const;
    // Pretty-printed with 2-space indentation (the format the committed
    // BENCH_*.json trajectory files use, so cross-PR diffs stay readable).
    std::string dump_pretty() const;

    // Strict parse of one JSON document (trailing whitespace allowed).
    // nullopt on any syntax error.
    static std::optional<Value> parse(std::string_view text);

private:
    void write(std::string& out, int indent, int depth) const;

    Type type_ = Type::kNull;
    bool bool_ = false;
    double num_ = 0;
    int64_t int_ = 0;
    bool exact_ = false;  // int_ holds the number exactly
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

// Appends `s` to `out` as a quoted JSON string with escapes — shared by
// Value::dump and the journal's hand-rolled JSON-lines fast path.
void escape_string(std::string& out, std::string_view s);

}  // namespace xrp::json

#endif
