// Hierarchical router configuration (§3: the Router Manager "holds the
// router configuration ... providing operators with unified management
// interfaces"). The syntax is the JunOS-style block language XORP uses:
//
//   interfaces {
//       eth0 { address 192.0.2.1/24; }
//   }
//   protocols {
//       static {
//           route 10.0.0.0/8 { nexthop 192.0.2.254; }
//       }
//       rip { interface eth0; }
//       bgp {
//           local-as 1777;
//           bgp-id 192.0.2.1;
//       }
//   }
//
// A node is a word list; "word+ ;" makes a leaf, "word+ { ... }" a block.
// '#' comments run to end of line. Blocks nest at most 64 deep; deeper
// input is a parse error naming its line.
#ifndef XRP_RTRMGR_CONFIGTREE_HPP
#define XRP_RTRMGR_CONFIGTREE_HPP

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xrp::rtrmgr {

struct ConfigNode {
    std::string name;               // first word
    std::vector<std::string> args;  // remaining words
    std::vector<ConfigNode> children;

    bool operator==(const ConfigNode&) const = default;

    // First child with this name (and, if given, this first argument).
    const ConfigNode* find(std::string_view child_name) const;
    const ConfigNode* find(std::string_view child_name,
                           std::string_view arg0) const;
    // The single argument of leaf child `name` ("local-as 1777;" -> "1777").
    std::optional<std::string> leaf_value(std::string_view child_name) const;

    std::string str(int indent = 0) const;
};

class ConfigTree {
public:
    static std::optional<ConfigTree> parse(std::string_view text,
                                           std::string* error = nullptr);

    const ConfigNode& root() const { return root_; }
    // Path lookup by node names: find("protocols/bgp").
    const ConfigNode* find(std::string_view path) const;

    std::string str() const;

    bool operator==(const ConfigTree&) const = default;

private:
    ConfigNode root_;  // anonymous container of top-level nodes
};

}  // namespace xrp::rtrmgr

#endif
