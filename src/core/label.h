// Labels: functions from categories to taint levels (paper §2).
//
// A label is represented as a default level plus a sorted list of explicit
// (category, level) exceptions, each packed into one 64-bit word — 61 bits of
// category name and 3 bits of level, exactly the encoding the paper says
// motivated the 61-bit category width.
//
// The information-flow partial order is
//   L1 ⊑ L2  iff  ∀c : L1(c) ≤ L2(c)
// with ⋆ and J handled by explicitly shifting a label via ToHi()/ToStar()
// before comparing, mirroring the paper's superscript-J and superscript-⋆
// notation.
#ifndef SRC_CORE_LABEL_H_
#define SRC_CORE_LABEL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/category.h"
#include "src/core/level.h"

namespace histar {

class Label {
 public:
  // The conventional default-1 label {1}.
  Label() : default_level_(Level::k1) {}
  explicit Label(Level default_level) : default_level_(default_level) {}

  // Convenience construction: Label(Level::k1, {{cat, Level::k3}, ...}).
  Label(Level default_level, std::initializer_list<std::pair<CategoryId, Level>> entries);

  Level get(CategoryId c) const;
  // Sets L(c) = l; an entry equal to the default level is erased so that
  // structurally equal labels are representationally equal.
  void set(CategoryId c, Level l);
  Level default_level() const { return default_level_; }

  // Number of explicit (non-default) entries.
  size_t entry_count() const { return entries_.size(); }
  // Explicit categories, ascending.
  std::vector<CategoryId> Categories() const;

  // True iff get(c) == kStar (the thread/gate "owns" c).
  bool Owns(CategoryId c) const { return get(c) == Level::kStar; }
  // True iff any entry (or the default) equals `l`.
  bool HasLevel(Level l) const;

  // The ⊑ relation, comparing stored levels literally. Callers implement the
  // paper's access rules by shifting first, e.g. CanObserve(T, O) is
  // O.label.Leq(T.label.ToHi()).
  bool Leq(const Label& other) const;

  // ⋆ → J (treat ownership as high; used when the label is on the right of
  // an observation check).
  Label ToHi() const;
  // J → ⋆ (used to bring a comparison-time label back to storable form).
  Label ToStar() const;

  // Least upper bound ⊔ (pointwise max) and greatest lower bound (pointwise
  // min). Meet is not in the paper's notation but is needed for clearance
  // arithmetic in the kernel.
  Label Join(const Label& other) const;
  Label Meet(const Label& other) const;

  // The lowest label L' with thread ⊑ L' and obj ⊑ L'^J: what a thread must
  // raise itself to in order to observe obj (paper §2.2):
  //   L' = (LT^J ⊔ LO)^⋆
  static Label RaiseForRead(const Label& thread_label, const Label& obj_label);

  // The gate-crossing floor (L_T^J ⊔ L_G^J)^⋆ (paper §3.5): keep the
  // thread's taint, take the gate's ownership. One merge over both entry
  // lists: ⋆ on either side gives ⋆, otherwise the higher level wins.
  static Label GateFloor(const Label& thread_label, const Label& gate_label);

  bool operator==(const Label& other) const;
  bool operator!=(const Label& other) const { return !(*this == other); }
  size_t Hash() const;

  // Rendering such as "{x*, y0, z3, 1}"; `namer` (optional) maps category ids
  // to short names for readable test output.
  std::string ToString(const std::function<std::string(CategoryId)>& namer = nullptr) const;

  // Flat serialization for the single-level store.
  void Serialize(std::vector<uint8_t>* out) const;
  static bool Deserialize(const uint8_t* data, size_t len, size_t* consumed, Label* out);

 private:
  static uint64_t Pack(CategoryId c, Level l) {
    return (c << 3) | static_cast<uint64_t>(l);
  }
  static CategoryId PackedCat(uint64_t e) { return e >> 3; }
  static Level PackedLevel(uint64_t e) { return static_cast<Level>(e & 7); }

  // Binary search for the entry index of category c; returns entries_.size()
  // if absent.
  size_t Find(CategoryId c) const;

  Level default_level_;
  std::vector<uint64_t> entries_;  // sorted by category id
};

struct LabelHash {
  size_t operator()(const Label& l) const { return l.Hash(); }
};

}  // namespace histar

#endif  // SRC_CORE_LABEL_H_
