#include "rtrmgr/configtree.hpp"

#include <cctype>

namespace xrp::rtrmgr {

namespace {

struct Tokenizer {
    std::string_view text;
    size_t pos = 0;
    int line = 1;

    void skip() {
        while (pos < text.size()) {
            if (text[pos] == '\n') {
                ++line;
                ++pos;
            } else if (std::isspace(static_cast<unsigned char>(text[pos]))) {
                ++pos;
            } else if (text[pos] == '#') {
                while (pos < text.size() && text[pos] != '\n') ++pos;
            } else {
                break;
            }
        }
    }

    std::string next() {
        skip();
        if (pos >= text.size()) return {};
        char c = text[pos];
        if (c == '{' || c == '}' || c == ';') {
            ++pos;
            return std::string(1, c);
        }
        size_t start = pos;
        while (pos < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[pos])) &&
               text[pos] != '{' && text[pos] != '}' && text[pos] != ';' &&
               text[pos] != '#')
            ++pos;
        return std::string(text.substr(start, pos - start));
    }

    std::string peek() {
        size_t p = pos;
        int l = line;
        std::string t = next();
        pos = p;
        line = l;
        return t;
    }
};

// Block nesting cap. Real configs nest about five deep; the parser recurses
// once per '{', so an unbounded depth lets hostile input overflow the stack.
constexpr int kMaxDepth = 64;

bool parse_children(Tokenizer& tok, std::vector<ConfigNode>& out, int depth,
                    std::string* error) {
    const bool top_level = depth == 0;
    while (true) {
        std::string word = tok.peek();
        if (word.empty()) {
            if (top_level) return true;
            if (error)
                *error = "line " + std::to_string(tok.line) +
                         ": unexpected end of config (missing '}')";
            return false;
        }
        if (word == "}") {
            if (top_level) {
                if (error)
                    *error = "line " + std::to_string(tok.line) +
                             ": unmatched '}'";
                return false;
            }
            tok.next();
            return true;
        }
        if (word == "{" || word == ";") {
            if (error)
                *error = "line " + std::to_string(tok.line) +
                         ": statement must start with a word";
            return false;
        }
        ConfigNode node;
        node.name = tok.next();
        while (true) {
            std::string t = tok.peek();
            if (t == "{") {
                tok.next();
                if (depth >= kMaxDepth) {
                    if (error)
                        *error = "line " + std::to_string(tok.line) +
                                 ": blocks nested deeper than " +
                                 std::to_string(kMaxDepth);
                    return false;
                }
                if (!parse_children(tok, node.children, depth + 1, error))
                    return false;
                break;
            }
            if (t == ";") {
                tok.next();
                break;
            }
            if (t.empty() || t == "}") {
                if (error)
                    *error = "line " + std::to_string(tok.line) +
                             ": expected ';' or '{' after '" + node.name + "'";
                return false;
            }
            node.args.push_back(tok.next());
        }
        out.push_back(std::move(node));
    }
}

}  // namespace

const ConfigNode* ConfigNode::find(std::string_view child_name) const {
    for (const ConfigNode& c : children)
        if (c.name == child_name) return &c;
    return nullptr;
}

const ConfigNode* ConfigNode::find(std::string_view child_name,
                                   std::string_view arg0) const {
    for (const ConfigNode& c : children)
        if (c.name == child_name && !c.args.empty() && c.args[0] == arg0)
            return &c;
    return nullptr;
}

std::optional<std::string> ConfigNode::leaf_value(
    std::string_view child_name) const {
    const ConfigNode* c = find(child_name);
    if (c == nullptr || c->args.size() != 1) return std::nullopt;
    return c->args[0];
}

std::string ConfigNode::str(int indent) const {
    std::string pad(static_cast<size_t>(indent) * 4, ' ');
    std::string s = pad + name;
    for (const std::string& a : args) s += " " + a;
    if (children.empty()) {
        s += ";\n";
        return s;
    }
    s += " {\n";
    for (const ConfigNode& c : children) s += c.str(indent + 1);
    s += pad + "}\n";
    return s;
}

std::optional<ConfigTree> ConfigTree::parse(std::string_view text,
                                            std::string* error) {
    Tokenizer tok{text};
    ConfigTree tree;
    if (!parse_children(tok, tree.root_.children, 0, error))
        return std::nullopt;
    return tree;
}

const ConfigNode* ConfigTree::find(std::string_view path) const {
    const ConfigNode* n = &root_;
    size_t start = 0;
    while (start <= path.size()) {
        size_t slash = path.find('/', start);
        std::string_view part = slash == std::string_view::npos
                                    ? path.substr(start)
                                    : path.substr(start, slash - start);
        n = n->find(part);
        if (n == nullptr) return nullptr;
        if (slash == std::string_view::npos) break;
        start = slash + 1;
    }
    return n;
}

std::string ConfigTree::str() const {
    std::string s;
    for (const ConfigNode& c : root_.children) s += c.str(0);
    return s;
}

}  // namespace xrp::rtrmgr
