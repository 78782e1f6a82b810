#include "telemetry/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace xrp::json {

Value& Value::set(const std::string& key, Value v) {
    type_ = Type::kObject;
    for (auto& [k, existing] : obj_) {
        if (k == key) {
            existing = std::move(v);
            return existing;
        }
    }
    obj_.emplace_back(key, std::move(v));
    return obj_.back().second;
}

const Value* Value::find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    for (const auto& [k, v] : obj_)
        if (k == key) return &v;
    return nullptr;
}

void escape_string(std::string& out, std::string_view s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(c) & 0xff);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

namespace {

void write_number(std::string& out, double d) {
    if (!std::isfinite(d)) {
        // JSON has no inf/nan; null is the conventional stand-in.
        out += "null";
        return;
    }
    // Integers (the common case: counts, nanoseconds) print exactly.
    if (d == std::floor(d) && std::fabs(d) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(d));
        out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", d);
    out += buf;
}

void newline_indent(std::string& out, int indent, int depth) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * depth), ' ');
}

}  // namespace

void Value::write(std::string& out, int indent, int depth) const {
    switch (type_) {
        case Type::kNull: out += "null"; return;
        case Type::kBool: out += bool_ ? "true" : "false"; return;
        case Type::kNumber:
            if (exact_)
                out += std::to_string(int_);
            else
                write_number(out, num_);
            return;
        case Type::kString: escape_string(out, str_); return;
        case Type::kArray: {
            if (arr_.empty()) {
                out += "[]";
                return;
            }
            // Arrays of scalars stay on one line even when pretty-printing
            // (CDF point lists would otherwise explode vertically).
            bool scalar_only = true;
            for (const Value& v : arr_)
                if (v.is_array() || v.is_object()) scalar_only = false;
            out += '[';
            bool first = true;
            for (const Value& v : arr_) {
                if (!first) out += indent > 0 && scalar_only ? ", " : ",";
                if (!scalar_only) newline_indent(out, indent, depth + 1);
                v.write(out, scalar_only ? 0 : indent, depth + 1);
                first = false;
            }
            if (!scalar_only) newline_indent(out, indent, depth);
            out += ']';
            return;
        }
        case Type::kObject: {
            if (obj_.empty()) {
                out += "{}";
                return;
            }
            out += '{';
            bool first = true;
            for (const auto& [k, v] : obj_) {
                if (!first) out += ',';
                newline_indent(out, indent, depth + 1);
                escape_string(out, k);
                out += indent > 0 ? ": " : ":";
                v.write(out, indent, depth + 1);
                first = false;
            }
            newline_indent(out, indent, depth);
            out += '}';
            return;
        }
    }
}

std::string Value::dump() const {
    std::string out;
    write(out, 0, 0);
    return out;
}

std::string Value::dump_pretty() const {
    std::string out;
    write(out, 2, 0);
    out += '\n';
    return out;
}

// ---- parser ---------------------------------------------------------------

namespace {

struct Parser {
    std::string_view s;
    size_t i = 0;

    void skip_ws() {
        while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                                s[i] == '\r'))
            ++i;
    }
    bool eat(char c) {
        skip_ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }
    bool literal(std::string_view lit) {
        if (s.substr(i, lit.size()) != lit) return false;
        i += lit.size();
        return true;
    }

    bool parse_string(std::string& out) {
        if (!eat('"')) return false;
        while (i < s.size()) {
            char c = s[i++];
            if (c == '"') return true;
            if (c == '\\') {
                if (i >= s.size()) return false;
                char e = s[i++];
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        if (i + 4 > s.size()) return false;
                        unsigned code = 0;
                        for (int k = 0; k < 4; ++k) {
                            char h = s[i++];
                            code <<= 4;
                            if (h >= '0' && h <= '9')
                                code |= static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f')
                                code |= static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F')
                                code |= static_cast<unsigned>(h - 'A' + 10);
                            else
                                return false;
                        }
                        // UTF-8 encode the BMP code point (journal strings
                        // only ever escape control chars, but be correct).
                        if (code < 0x80) {
                            out += static_cast<char>(code);
                        } else if (code < 0x800) {
                            out += static_cast<char>(0xc0 | (code >> 6));
                            out += static_cast<char>(0x80 | (code & 0x3f));
                        } else {
                            out += static_cast<char>(0xe0 | (code >> 12));
                            out += static_cast<char>(0x80 |
                                                     ((code >> 6) & 0x3f));
                            out += static_cast<char>(0x80 | (code & 0x3f));
                        }
                        break;
                    }
                    default: return false;
                }
            } else {
                out += c;
            }
        }
        return false;  // unterminated
    }

    bool parse_value(Value& out, int depth) {
        if (depth > 64) return false;
        skip_ws();
        if (i >= s.size()) return false;
        char c = s[i];
        if (c == 'n') {
            if (!literal("null")) return false;
            out = Value();
            return true;
        }
        if (c == 't') {
            if (!literal("true")) return false;
            out = Value(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false")) return false;
            out = Value(false);
            return true;
        }
        if (c == '"') {
            std::string str;
            if (!parse_string(str)) return false;
            out = Value(std::move(str));
            return true;
        }
        if (c == '[') {
            ++i;
            out = Value::array();
            skip_ws();
            if (eat(']')) return true;
            while (true) {
                Value v;
                if (!parse_value(v, depth + 1)) return false;
                out.push_back(std::move(v));
                if (eat(']')) return true;
                if (!eat(',')) return false;
            }
        }
        if (c == '{') {
            ++i;
            out = Value::object();
            skip_ws();
            if (eat('}')) return true;
            while (true) {
                skip_ws();
                std::string key;
                if (!parse_string(key)) return false;
                if (!eat(':')) return false;
                Value v;
                if (!parse_value(v, depth + 1)) return false;
                out.set(key, std::move(v));
                if (eat('}')) return true;
                if (!eat(',')) return false;
            }
        }
        // number
        size_t start = i;
        if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
        while (i < s.size() &&
               ((s[i] >= '0' && s[i] <= '9') || s[i] == '.' || s[i] == 'e' ||
                s[i] == 'E' || s[i] == '-' || s[i] == '+'))
            ++i;
        if (i == start) return false;
        std::string num(s.substr(start, i - start));
        char* end = nullptr;
        double d = std::strtod(num.c_str(), &end);
        if (end == nullptr || *end != '\0') return false;
        int64_t n = 0;
        const auto [p, ec] =
            std::from_chars(num.data(), num.data() + num.size(), n);
        if (ec == std::errc() && p == num.data() + num.size())
            out = Value(n);
        else
            out = Value(d);
        return true;
    }
};

}  // namespace

std::optional<Value> Value::parse(std::string_view text) {
    Parser p{text};
    Value v;
    if (!p.parse_value(v, 0)) return std::nullopt;
    p.skip_ws();
    if (p.i != text.size()) return std::nullopt;
    return v;
}

}  // namespace xrp::json
