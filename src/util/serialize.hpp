// Byte-oriented serialization archives for parcel payloads.
//
// Parcels move argument values and continuations between localities; the
// archive is the single encoding used by the parcel layer, the AGAS symbolic
// namespace, and echo update broadcasts.
//
// Both archives expose `operator&` so a user type implements one function:
//
//   struct particle { double x, v; };
//   template <typename Ar> void serialize(Ar& ar, particle& p) {
//     ar & p.x & p.v;
//   }
//
// Supported out of the box: arithmetic types, enums, std::string,
// std::vector, std::array, std::pair, std::tuple, std::optional, and any
// type with an ADL-visible `serialize(ar, value)`.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace px::util {

class output_archive;
class input_archive;

namespace detail {

template <typename T>
inline constexpr bool is_bitwise_v =
    std::is_arithmetic_v<T> || std::is_enum_v<T>;

}  // namespace detail

class output_archive {
 public:
  static constexpr bool is_saving = true;

  void write_bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), p, p + size);
  }

  template <typename T>
    requires detail::is_bitwise_v<T>
  output_archive& operator&(const T& value) {
    write_bytes(&value, sizeof value);
    return *this;
  }

  output_archive& operator&(const std::string& s) {
    const auto n = static_cast<std::uint64_t>(s.size());
    *this & n;
    write_bytes(s.data(), s.size());
    return *this;
  }

  template <typename T>
  output_archive& operator&(const std::vector<T>& v) {
    const auto n = static_cast<std::uint64_t>(v.size());
    *this & n;
    if constexpr (detail::is_bitwise_v<T>) {
      write_bytes(v.data(), v.size() * sizeof(T));
    } else {
      for (const auto& elem : v) *this & elem;
    }
    return *this;
  }

  template <typename T, std::size_t N>
  output_archive& operator&(const std::array<T, N>& a) {
    for (const auto& elem : a) *this & elem;
    return *this;
  }

  template <typename A, typename B>
  output_archive& operator&(const std::pair<A, B>& p) {
    return *this & p.first & p.second;
  }

  template <typename... Ts>
  output_archive& operator&(const std::tuple<Ts...>& t) {
    std::apply([this](const Ts&... elems) { ((*this & elems), ...); }, t);
    return *this;
  }

  template <typename T>
  output_archive& operator&(const std::optional<T>& opt) {
    const std::uint8_t has = opt.has_value() ? 1 : 0;
    *this & has;
    if (opt) *this & *opt;
    return *this;
  }

  // ADL fallback for user types.
  template <typename T>
    requires(!detail::is_bitwise_v<T>)
  output_archive& operator&(const T& value) {
    serialize(*this, const_cast<T&>(value));
    return *this;
  }

  std::vector<std::byte> take() && { return std::move(buffer_); }
  const std::vector<std::byte>& bytes() const noexcept { return buffer_; }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::vector<std::byte> buffer_;
};

class input_archive {
 public:
  static constexpr bool is_saving = false;

  explicit input_archive(std::span<const std::byte> data) noexcept
      : data_(data) {}

  void read_bytes(void* out, std::size_t size) {
    require(size <= remaining());
    if (size == 0) return;  // `out` may be null (an empty vector's data())
    std::memcpy(out, data_.data() + offset_, size);
    offset_ += size;
  }

  template <typename T>
    requires detail::is_bitwise_v<T>
  input_archive& operator&(T& value) {
    read_bytes(&value, sizeof value);
    return *this;
  }

  // Length prefixes come off the wire: each is checked against the bytes
  // actually left before anything is allocated for it.
  input_archive& operator&(std::string& s) {
    std::uint64_t n = 0;
    *this & n;
    require(n <= remaining());
    s.resize(n);
    read_bytes(s.data(), n);
    return *this;
  }

  template <typename T>
  input_archive& operator&(std::vector<T>& v) {
    std::uint64_t n = 0;
    *this & n;
    if constexpr (detail::is_bitwise_v<T>) {
      require(n <= remaining() / sizeof(T));
      v.resize(n);
      read_bytes(v.data(), v.size() * sizeof(T));
    } else {
      // An element's encoded size is not sizeof(T): grow as elements
      // decode (reserving no more memory than the bytes left), so a lying
      // prefix runs out of bytes instead of memory.
      v.clear();
      v.reserve(std::min<std::uint64_t>(n, remaining() / sizeof(T)));
      for (std::uint64_t i = 0; i < n; ++i) *this & v.emplace_back();
    }
    return *this;
  }

  template <typename T, std::size_t N>
  input_archive& operator&(std::array<T, N>& a) {
    for (auto& elem : a) *this & elem;
    return *this;
  }

  template <typename A, typename B>
  input_archive& operator&(std::pair<A, B>& p) {
    return *this & p.first & p.second;
  }

  template <typename... Ts>
  input_archive& operator&(std::tuple<Ts...>& t) {
    std::apply([this](Ts&... elems) { ((*this & elems), ...); }, t);
    return *this;
  }

  template <typename T>
  input_archive& operator&(std::optional<T>& opt) {
    std::uint8_t has = 0;
    *this & has;
    if (has) {
      T value{};
      *this & value;
      opt = std::move(value);
    } else {
      opt.reset();
    }
    return *this;
  }

  template <typename T>
    requires(!detail::is_bitwise_v<T>)
  input_archive& operator&(T& value) {
    serialize(*this, value);
    return *this;
  }

  std::size_t remaining() const noexcept { return data_.size() - offset_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  static void require(bool fits) {
    PX_ASSERT_MSG(fits, "input_archive: truncated payload");
  }

  std::span<const std::byte> data_;
  std::size_t offset_ = 0;
};

// Convenience round-trip helpers.
template <typename... Ts>
std::vector<std::byte> to_bytes(const Ts&... values) {
  output_archive ar;
  ((ar & values), ...);
  return std::move(ar).take();
}

template <typename T>
T from_bytes(std::span<const std::byte> data) {
  input_archive ar(data);
  T value{};
  ar& value;
  return value;
}

}  // namespace px::util
