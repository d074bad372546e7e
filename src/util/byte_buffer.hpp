// Simple serialization buffer used by the checkpoint store and by service
// messages. Little-endian, length-prefixed strings, no alignment games.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace redundancy::util {

class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::byte> bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] const std::byte* data() const noexcept { return bytes_.data(); }
  [[nodiscard]] std::span<const std::byte> span() const noexcept { return bytes_; }

  void reserve(std::size_t capacity) { bytes_.reserve(capacity); }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    append(p, sizeof(T));
  }

  /// Raw-bytes fast path: one capacity check + one memcpy.
  void put_bytes(std::span<const std::byte> bytes) {
    append(bytes.data(), bytes.size());
  }

  void put_string(std::string_view s) {
    // One growth decision for prefix + payload, then two appends that are
    // guaranteed not to reallocate.
    ensure(sizeof(std::uint32_t) + s.size());
    put(static_cast<std::uint32_t>(s.size()));
    append(reinterpret_cast<const std::byte*>(s.data()), s.size());
  }

  /// Byte equality: a size check, then memcmp (the voters compare
  /// checkpoint blobs with it). An empty buffer may have no storage, and
  /// memcmp must not see a null pointer.
  [[nodiscard]] friend bool operator==(const ByteBuffer& a,
                                       const ByteBuffer& b) noexcept {
    return a.size() == b.size() &&
           (a.size() == 0 || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }

  /// Sequential reader over a ByteBuffer.
  class Reader {
   public:
    explicit Reader(const ByteBuffer& buf) : bytes_(buf.bytes_) {}

    template <typename T>
      requires std::is_trivially_copyable_v<T>
    T get() {
      if (pos_ + sizeof(T) > bytes_.size()) {
        throw std::out_of_range{"ByteBuffer::Reader: truncated read"};
      }
      T v;
      std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
      pos_ += sizeof(T);
      return v;
    }

    std::string get_string() {
      const auto len = get<std::uint32_t>();
      if (pos_ + len > bytes_.size()) {
        throw std::out_of_range{"ByteBuffer::Reader: truncated string"};
      }
      std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
      pos_ += len;
      return s;
    }

    [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }

   private:
    const std::vector<std::byte>& bytes_;
    std::size_t pos_ = 0;
  };

  [[nodiscard]] Reader reader() const { return Reader{*this}; }

 private:
  /// Geometric growth ahead of an `extra`-byte append. libstdc++'s insert
  /// range already grows geometrically, but an explicit doubling policy
  /// here keeps large checkpoint serialization linear on every toolchain
  /// and lets put_string make one growth decision for two appends.
  void ensure(std::size_t extra) {
    const std::size_t need = bytes_.size() + extra;
    if (need <= bytes_.capacity()) return;
    bytes_.reserve(std::max(need, bytes_.capacity() * 2));
  }

  void append(const std::byte* p, std::size_t n) {
    ensure(n);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  std::vector<std::byte> bytes_;
};

}  // namespace redundancy::util
