#include "src/core/label.h"

#include <algorithm>
#include <cstring>

namespace histar {

Label::Label(Level default_level,
             std::initializer_list<std::pair<CategoryId, Level>> entries)
    : default_level_(default_level) {
  for (const auto& [c, l] : entries) {
    set(c, l);
  }
}

size_t Label::Find(CategoryId c) const {
  // Entries are sorted by category (the top 61 bits of the packed word), so a
  // lower_bound on (c << 3) lands on c's entry if present.
  uint64_t key = c << 3;
  auto it = std::lower_bound(entries_.begin(), entries_.end(), key,
                             [](uint64_t e, uint64_t k) { return (e & ~7ULL) < k; });
  if (it != entries_.end() && PackedCat(*it) == c) {
    return static_cast<size_t>(it - entries_.begin());
  }
  return entries_.size();
}

Level Label::get(CategoryId c) const {
  size_t i = Find(c);
  return i < entries_.size() ? PackedLevel(entries_[i]) : default_level_;
}

void Label::set(CategoryId c, Level l) {
  size_t i = Find(c);
  if (l == default_level_) {
    if (i < entries_.size()) {
      entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(i));
    }
    return;
  }
  uint64_t packed = Pack(c, l);
  if (i < entries_.size()) {
    entries_[i] = packed;
    return;
  }
  auto it = std::lower_bound(entries_.begin(), entries_.end(), packed,
                             [](uint64_t e, uint64_t k) { return (e & ~7ULL) < (k & ~7ULL); });
  entries_.insert(it, packed);
}

std::vector<CategoryId> Label::Categories() const {
  std::vector<CategoryId> out;
  out.reserve(entries_.size());
  for (uint64_t e : entries_) {
    out.push_back(PackedCat(e));
  }
  return out;
}

bool Label::HasLevel(Level l) const {
  if (default_level_ == l) {
    return true;
  }
  for (uint64_t e : entries_) {
    if (PackedLevel(e) == l) {
      return true;
    }
  }
  return false;
}

bool Label::Leq(const Label& other) const {
  // Merge-walk both sorted entry lists. For a category explicit in only one
  // label, the other side contributes its default.
  size_t i = 0;
  size_t j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    CategoryId ci = i < entries_.size() ? PackedCat(entries_[i]) : ~uint64_t{0};
    CategoryId cj = j < other.entries_.size() ? PackedCat(other.entries_[j]) : ~uint64_t{0};
    Level li;
    Level lj;
    if (ci < cj) {
      li = PackedLevel(entries_[i]);
      lj = other.default_level_;
      ++i;
    } else if (cj < ci) {
      li = default_level_;
      lj = PackedLevel(other.entries_[j]);
      ++j;
    } else {
      li = PackedLevel(entries_[i]);
      lj = PackedLevel(other.entries_[j]);
      ++i;
      ++j;
    }
    if (!LevelLeq(li, lj)) {
      return false;
    }
  }
  return LevelLeq(default_level_, other.default_level_);
}

Label Label::ToHi() const {
  Label out(default_level_ == Level::kStar ? Level::kHi : default_level_);
  out.entries_.reserve(entries_.size());
  for (uint64_t e : entries_) {
    Level l = PackedLevel(e);
    out.entries_.push_back(Pack(PackedCat(e), l == Level::kStar ? Level::kHi : l));
  }
  return out;
}

Label Label::ToStar() const {
  Label out(default_level_ == Level::kHi ? Level::kStar : default_level_);
  out.entries_.reserve(entries_.size());
  for (uint64_t e : entries_) {
    Level l = PackedLevel(e);
    out.entries_.push_back(Pack(PackedCat(e), l == Level::kHi ? Level::kStar : l));
  }
  return out;
}

Label Label::Join(const Label& other) const {
  Label out(LevelMax(default_level_, other.default_level_));
  size_t i = 0;
  size_t j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    CategoryId ci = i < entries_.size() ? PackedCat(entries_[i]) : ~uint64_t{0};
    CategoryId cj = j < other.entries_.size() ? PackedCat(other.entries_[j]) : ~uint64_t{0};
    CategoryId c;
    Level li;
    Level lj;
    if (ci < cj) {
      c = ci;
      li = PackedLevel(entries_[i]);
      lj = other.default_level_;
      ++i;
    } else if (cj < ci) {
      c = cj;
      li = default_level_;
      lj = PackedLevel(other.entries_[j]);
      ++j;
    } else {
      c = ci;
      li = PackedLevel(entries_[i]);
      lj = PackedLevel(other.entries_[j]);
      ++i;
      ++j;
    }
    out.set(c, LevelMax(li, lj));
  }
  return out;
}

Label Label::Meet(const Label& other) const {
  Label out(LevelMin(default_level_, other.default_level_));
  size_t i = 0;
  size_t j = 0;
  while (i < entries_.size() || j < other.entries_.size()) {
    CategoryId ci = i < entries_.size() ? PackedCat(entries_[i]) : ~uint64_t{0};
    CategoryId cj = j < other.entries_.size() ? PackedCat(other.entries_[j]) : ~uint64_t{0};
    CategoryId c;
    Level li;
    Level lj;
    if (ci < cj) {
      c = ci;
      li = PackedLevel(entries_[i]);
      lj = other.default_level_;
      ++i;
    } else if (cj < ci) {
      c = cj;
      li = default_level_;
      lj = PackedLevel(other.entries_[j]);
      ++j;
    } else {
      c = ci;
      li = PackedLevel(entries_[i]);
      lj = PackedLevel(other.entries_[j]);
      ++i;
      ++j;
    }
    out.set(c, LevelMin(li, lj));
  }
  return out;
}

Label Label::RaiseForRead(const Label& thread_label, const Label& obj_label) {
  return thread_label.ToHi().Join(obj_label).ToStar();
}

Label Label::GateFloor(const Label& thread_label, const Label& gate_label) {
  // Per category: max of the ⋆→J shifted levels, shifted back J→⋆ — the
  // three-step formula, without building the two shifted labels or paying
  // Join's per-entry insert.
  auto floor = [](Level a, Level b) {
    Level m = LevelMax(a == Level::kStar ? Level::kHi : a, b == Level::kStar ? Level::kHi : b);
    return m == Level::kHi ? Level::kStar : m;
  };
  const std::vector<uint64_t>& te = thread_label.entries_;
  const std::vector<uint64_t>& ge = gate_label.entries_;
  Label out(floor(thread_label.default_level_, gate_label.default_level_));
  out.entries_.reserve(te.size() + ge.size());
  size_t i = 0;
  size_t j = 0;
  while (i < te.size() || j < ge.size()) {
    CategoryId ci = i < te.size() ? PackedCat(te[i]) : ~uint64_t{0};
    CategoryId cj = j < ge.size() ? PackedCat(ge[j]) : ~uint64_t{0};
    CategoryId c = ci < cj ? ci : cj;
    Level li = ci == c ? PackedLevel(te[i++]) : thread_label.default_level_;
    Level lj = cj == c ? PackedLevel(ge[j++]) : gate_label.default_level_;
    Level l = floor(li, lj);
    if (l != out.default_level_) {
      out.entries_.push_back(Pack(c, l));
    }
  }
  return out;
}

bool Label::operator==(const Label& other) const {
  return default_level_ == other.default_level_ && entries_ == other.entries_;
}

size_t Label::Hash() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(default_level_);
  for (uint64_t e : entries_) {
    h ^= e + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return static_cast<size_t>(h);
}

std::string Label::ToString(const std::function<std::string(CategoryId)>& namer) const {
  std::string out = "{";
  for (uint64_t e : entries_) {
    CategoryId c = PackedCat(e);
    if (namer) {
      out += namer(c);
    } else {
      out += "c" + std::to_string(c & 0xffff);
    }
    out += LevelChar(PackedLevel(e));
    out += ", ";
  }
  out += LevelChar(default_level_);
  out += "}";
  return out;
}

void Label::Serialize(std::vector<uint8_t>* out) const {
  out->push_back(static_cast<uint8_t>(default_level_));
  uint32_t n = static_cast<uint32_t>(entries_.size());
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(n >> (8 * i)));
  }
  for (uint64_t e : entries_) {
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<uint8_t>(e >> (8 * i)));
    }
  }
}

bool Label::Deserialize(const uint8_t* data, size_t len, size_t* consumed, Label* out) {
  if (len < 5) {
    return false;
  }
  uint8_t def = data[0];
  if (def > static_cast<uint8_t>(Level::k3)) {
    // Stored labels may contain kStar..k3 but never kHi.
    return false;
  }
  uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    n |= static_cast<uint32_t>(data[1 + i]) << (8 * i);
  }
  size_t need = 5 + static_cast<size_t>(n) * 8;
  if (len < need) {
    return false;
  }
  Label result(static_cast<Level>(def));
  result.entries_.reserve(n);
  uint64_t prev = 0;
  for (uint32_t k = 0; k < n; ++k) {
    uint64_t e = 0;
    for (int i = 0; i < 8; ++i) {
      e |= static_cast<uint64_t>(data[5 + k * 8 + static_cast<size_t>(i)]) << (8 * i);
    }
    if (k > 0 && (e & ~7ULL) <= (prev & ~7ULL)) {
      return false;  // entries must be strictly sorted by category
    }
    prev = e;
    result.entries_.push_back(e);
  }
  *out = std::move(result);
  if (consumed != nullptr) {
    *consumed = need;
  }
  return true;
}

}  // namespace histar
