#include "verify/invariants.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/merge.h"

namespace dcprof::verify {

using core::Cct;
using core::MetricVec;
using core::NodeKind;
using core::ThreadProfile;

namespace {

std::string class_name(std::size_t c) {
  return std::string(core::to_string(static_cast<core::StorageClass>(c)));
}

/// The canonical identity of one node among its siblings: kind plus the
/// symbol with profile-local numbering resolved away (kVarStatic syms
/// become the named string).
struct CanonKey {
  std::uint8_t kind = 0;
  bool is_str = false;
  std::uint64_t num = 0;
  std::string str;

  bool operator<(const CanonKey& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (is_str != o.is_str) return is_str < o.is_str;
    if (is_str) return str < o.str;
    return num < o.num;
  }
  bool operator==(const CanonKey& o) const {
    return kind == o.kind && is_str == o.is_str &&
           (is_str ? str == o.str : num == o.num);
  }
};

CanonKey canon_key(const ThreadProfile& p, const Cct::Node& n) {
  CanonKey k;
  k.kind = static_cast<std::uint8_t>(n.kind);
  if (n.kind == NodeKind::kVarStatic && n.sym < p.strings.size()) {
    k.is_str = true;
    k.str = p.strings.str(n.sym);
  } else {
    k.num = n.sym;
  }
  return k;
}

/// Children of `id` ordered by canonical key (not by raw sym).
std::vector<std::pair<CanonKey, Cct::NodeId>> canon_children(
    const ThreadProfile& p, const Cct& cct, Cct::NodeId id) {
  std::vector<std::pair<CanonKey, Cct::NodeId>> out;
  for (const Cct::NodeId c : cct.children(id)) {
    out.emplace_back(canon_key(p, cct.node(c)), c);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void check_one_cct(const ThreadProfile& p, std::size_t c,
                   const CheckOptions& opts, CheckResult& out) {
  const Cct& cct = p.ccts[c];
  const auto fail = [&](const std::string& what) {
    out.violations.push_back("cct[" + class_name(c) + "]: " + what);
  };
  if (cct.size() == 0) {
    fail("empty tree (no root)");
    return;
  }
  if (cct.node(0).kind != NodeKind::kRoot) {
    fail("node 0 is not the root");
  }
  for (Cct::NodeId id = 1; id < cct.size(); ++id) {
    const Cct::Node& n = cct.node(id);
    if (n.kind == NodeKind::kRoot) {
      fail("non-zero node " + std::to_string(id) + " has root kind");
    }
    if (n.parent >= id) {
      fail("node " + std::to_string(id) + " precedes its parent " +
           std::to_string(n.parent));
      return;  // parent links below are unusable
    }
    if (n.kind == NodeKind::kVarStatic && n.sym >= p.strings.size()) {
      fail("node " + std::to_string(id) + " static-name id " +
           std::to_string(n.sym) + " out of range (strings: " +
           std::to_string(p.strings.size()) + ")");
    }
  }

  if (!opts.strict) return;

  // Child adjacency: children(p) must list exactly the nodes whose
  // parent link is p, in strictly increasing (kind, sym) order.
  using RawKey = std::pair<std::uint8_t, std::uint64_t>;
  std::map<Cct::NodeId, std::vector<std::pair<RawKey, Cct::NodeId>>> ref;
  for (Cct::NodeId id = 1; id < cct.size(); ++id) {
    const Cct::Node& n = cct.node(id);
    ref[n.parent].emplace_back(
        RawKey{static_cast<std::uint8_t>(n.kind), n.sym}, id);
  }
  for (Cct::NodeId id = 0; id < cct.size(); ++id) {
    auto expected = ref[id];
    std::sort(expected.begin(), expected.end());
    for (std::size_t i = 0; i + 1 < expected.size(); ++i) {
      if (expected[i].first == expected[i + 1].first) {
        fail("parent " + std::to_string(id) +
             " has two children with the same (kind, sym)");
      }
    }
    std::vector<Cct::NodeId> want;
    want.reserve(expected.size());
    for (const auto& [key, child] : expected) want.push_back(child);
    if (cct.children(id) != want) {
      fail("children(" + std::to_string(id) +
           ") disagrees with parent links / (kind, sym) order");
    }
  }

  // Metric monotonicity: inclusive >= exclusive everywhere, parents
  // dominate children, and the root's inclusive is the tree total.
  const std::vector<MetricVec> incl = cct.inclusive();
  for (Cct::NodeId id = 0; id < cct.size(); ++id) {
    const MetricVec& excl = cct.node(id).metrics;
    for (std::size_t m = 0; m < core::kNumMetrics; ++m) {
      if (incl[id].v[m] < excl.v[m]) {
        fail("node " + std::to_string(id) + " inclusive < exclusive");
        break;
      }
      if (id != 0 && incl[cct.node(id).parent].v[m] < incl[id].v[m]) {
        fail("node " + std::to_string(id) +
             " inclusive exceeds its parent's");
        break;
      }
    }
  }
  if (!incl.empty() && incl[0].v != cct.total().v) {
    fail("root inclusive != tree total");
  }
}

/// Structural checks over the v4 access-pattern table: keys reference a
/// real storage class and, for named classes, an in-range string id.
/// (Exactly what scan enforces, so any accepted file passes.)
void check_patterns(const ThreadProfile& p, CheckResult& out) {
  const auto fail = [&](const std::string& what) {
    out.violations.push_back("patterns: " + what);
  };
  for (const auto& [key, pat] : p.patterns.vars()) {
    (void)pat;
    if (key.cls >= core::kNumStorageClasses ||
        key.cls == static_cast<std::uint8_t>(core::StorageClass::kNoMem)) {
      fail("entry with storage class " + std::to_string(key.cls));
      continue;
    }
    const bool names_string =
        key.cls == static_cast<std::uint8_t>(core::StorageClass::kStatic) ||
        key.cls == static_cast<std::uint8_t>(core::StorageClass::kStack);
    if (names_string && key.id >= p.strings.size()) {
      fail("variable name id " + std::to_string(key.id) +
           " out of range (strings: " + std::to_string(p.strings.size()) +
           ")");
    }
  }
}

/// Pattern table with profile-local string numbering resolved away, for
/// cross-profile comparison.
std::map<CanonKey, core::VarPattern> canon_patterns(const ThreadProfile& p) {
  std::map<CanonKey, core::VarPattern> out;
  for (const auto& [key, pat] : p.patterns.vars()) {
    CanonKey k;
    k.kind = key.cls;
    const bool names_string =
        key.cls == static_cast<std::uint8_t>(core::StorageClass::kStatic) ||
        key.cls == static_cast<std::uint8_t>(core::StorageClass::kStack);
    if (names_string && key.id < p.strings.size()) {
      k.is_str = true;
      k.str = p.strings.str(key.id);
    } else {
      k.num = key.id;
    }
    out.emplace(std::move(k), pat);
  }
  return out;
}

}  // namespace

std::string CheckResult::summary() const {
  std::string out;
  for (const auto& v : violations) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

CheckResult check_profile(const ThreadProfile& p, const CheckOptions& opts) {
  CheckResult out;
  for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
    check_one_cct(p, c, opts, out);
  }
  check_patterns(p, out);
  if (opts.roundtrip) {
    std::ostringstream first;
    p.write(first);
    try {
      const ThreadProfile reread = ThreadProfile::read(first.str());
      std::ostringstream second;
      reread.write(second);
      if (second.str() != first.str()) {
        out.violations.push_back(
            "serialization round-trip is not byte-identical");
      }
    } catch (const std::exception& e) {
      out.violations.push_back(
          std::string("own serialization does not re-read: ") + e.what());
    }
  }
  return out;
}

bool canonical_equal(const ThreadProfile& a, const ThreadProfile& b,
                     std::string* why) {
  const auto differ = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
    const Cct& ca = a.ccts[c];
    const Cct& cb = b.ccts[c];
    if (ca.size() == 0 || cb.size() == 0) {
      if (ca.size() != cb.size()) {
        return differ("cct[" + class_name(c) + "]: one side empty");
      }
      continue;
    }
    // Pairwise DFS over canonically ordered children.
    std::vector<std::pair<Cct::NodeId, Cct::NodeId>> stack{{0, 0}};
    while (!stack.empty()) {
      const auto [na, nb] = stack.back();
      stack.pop_back();
      const Cct::Node& xa = ca.node(na);
      const Cct::Node& xb = cb.node(nb);
      if (!(canon_key(a, xa) == canon_key(b, xb)) ||
          xa.metrics.v != xb.metrics.v) {
        return differ("cct[" + class_name(c) + "]: node " +
                      std::to_string(na) + " vs " + std::to_string(nb) +
                      " differ");
      }
      const auto kids_a = canon_children(a, ca, na);
      const auto kids_b = canon_children(b, cb, nb);
      if (kids_a.size() != kids_b.size()) {
        return differ("cct[" + class_name(c) + "]: fanout differs under " +
                      std::to_string(na) + " vs " + std::to_string(nb));
      }
      for (std::size_t i = 0; i < kids_a.size(); ++i) {
        stack.emplace_back(kids_a[i].second, kids_b[i].second);
      }
    }
  }
  if (canon_patterns(a) != canon_patterns(b)) {
    return differ("access-pattern tables differ");
  }
  return true;
}

CheckResult check_merge_algebra(const std::vector<ThreadProfile>& profiles) {
  CheckResult out;
  if (profiles.size() < 2) return out;
  const ThreadProfile& a = profiles[0];
  const ThreadProfile& b = profiles[1];
  const ThreadProfile& c = profiles.size() > 2 ? profiles[2] : profiles[0];

  ThreadProfile ab = a;
  analysis::merge_into(ab, b);
  ThreadProfile ba = b;
  analysis::merge_into(ba, a);
  std::string why;
  if (!canonical_equal(ab, ba, &why)) {
    out.violations.push_back("merge not commutative: " + why);
  }

  ThreadProfile ab_c = ab;
  analysis::merge_into(ab_c, c);
  ThreadProfile bc = b;
  analysis::merge_into(bc, c);
  ThreadProfile a_bc = a;
  analysis::merge_into(a_bc, bc);
  if (!canonical_equal(ab_c, a_bc, &why)) {
    out.violations.push_back("merge not associative: " + why);
  }

  // Exact metric-total conservation across the 3-way merge.
  for (std::size_t cl = 0; cl < core::kNumStorageClasses; ++cl) {
    MetricVec want = a.ccts[cl].total();
    want += b.ccts[cl].total();
    want += c.ccts[cl].total();
    if (ab_c.ccts[cl].total().v != want.v) {
      out.violations.push_back("merge lost metrics in class " +
                               class_name(cl));
    }
  }
  return out;
}

}  // namespace dcprof::verify
