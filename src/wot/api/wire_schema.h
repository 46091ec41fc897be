// Field tables: the one description of every wire message.
//
// Each request, result and nested record in api.h lists its fields once,
// as `static constexpr auto kWire`: a wire name plus a pointer-to-member
// per field, in declaration order. Both framings are generated from that
// list — codec.cc walks it for NDJSON, binary_codec.cc for v2 binary —
// so a field's name, order and type cannot drift between them.
//
//   struct TopKQuery {
//     std::string source;
//     int64_t k = 10;
//     static constexpr auto kWire = wire::Message(
//         "topk", wire::Field("source", &TopKQuery::source),
//         wire::Field("k", &TopKQuery::k).Optional());
//   };
//
// The framing of a field follows its C++ type: std::string, int64_t,
// uint64_t, uint32_t, double, bool, std::vector of any of these or of a
// record type that has its own kWire. Binary always carries every field
// in order; the attributes below touch only the NDJSON framing.
#ifndef WOT_API_WIRE_SCHEMA_H_
#define WOT_API_WIRE_SCHEMA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace wot {
namespace api {
namespace wire {

/// \brief One field of a wire message: its wire name and member.
template <typename T, typename M>
struct Field {
  const char* name;
  M T::*member;
  /// NDJSON decode leaves the member at its default when the key is
  /// absent (an additive field an older peer does not send).
  bool optional = false;
  /// Byte strings only: NDJSON carries them hex-encoded, binary raw.
  bool hex = false;
  /// When set, NDJSON writes the field only while this member is > 0,
  /// so frames of servers without the feature stay byte-identical to
  /// older ones. Such a field is also Optional.
  int64_t T::*present_if = nullptr;

  constexpr Field Optional() const {
    Field field = *this;
    field.optional = true;
    return field;
  }
  constexpr Field Hex() const {
    Field field = *this;
    field.hex = true;
    return field;
  }
  constexpr Field OmitUnlessPositive(int64_t T::*gate) const {
    Field field = Optional();
    field.present_if = gate;
    return field;
  }
};
template <typename T, typename M>
Field(const char*, M T::*) -> Field<T, M>;

/// \brief A message's table: its wire name (the method of a request, the
/// result_type of a result, empty for a nested record) and its fields.
template <typename... Fields>
struct Schema {
  const char* name;
  std::tuple<Fields...> fields;
  /// The Frontend envelope answers this method itself (metrics and the
  /// replication methods); it never reaches DispatchPayload.
  bool envelope_answered = false;

  constexpr Schema EnvelopeAnswered() const {
    Schema schema = *this;
    schema.envelope_answered = true;
    return schema;
  }
};

template <typename... Fields>
constexpr Schema<Fields...> Message(const char* name, Fields... fields) {
  return {name, std::tuple<Fields...>(fields...)};
}

template <typename... Fields>
constexpr Schema<Fields...> Record(Fields... fields) {
  return Message("", fields...);
}

/// \brief Calls fn(field, value) for every field of \p message, in table
/// order (value is a reference to the member, const when message is).
template <typename T, typename Fn>
constexpr void ForEachField(T& message, Fn&& fn) {
  std::apply(
      [&](const auto&... field) { (fn(field, message.*field.member), ...); },
      std::remove_const_t<T>::kWire.fields);
}

/// std::monostate, the empty ResponsePayload alternative, has no fields.
template <typename Fn>
constexpr void ForEachField(const std::monostate&, Fn&&) {}
template <typename Fn>
constexpr void ForEachField(std::monostate&, Fn&&) {}

template <typename T>
concept EnvelopeAnswered = T::kWire.envelope_answered;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename E>
inline constexpr bool kIsVector<std::vector<E>> = true;

template <typename T>
constexpr const char* NameOf() {
  if constexpr (std::is_same_v<T, std::monostate>) {
    return nullptr;
  } else {
    return T::kWire.name;
  }
}

/// \brief The wire names of \p Variant's alternatives, by index (nullptr
/// for std::monostate, which has none).
template <typename Variant>
inline constexpr auto kNames = []<size_t... I>(std::index_sequence<I...>) {
  return std::array<const char*, sizeof...(I)>{
      NameOf<std::variant_alternative_t<I, Variant>>()...};
}(std::make_index_sequence<std::variant_size_v<Variant>>{});

/// \brief The index of the alternative of \p Variant named \p name.
template <typename Variant>
std::optional<size_t> IndexOfName(std::string_view name) {
  for (size_t i = 0; i < kNames<Variant>.size(); ++i) {
    if (kNames<Variant>[i] != nullptr && name == kNames<Variant>[i]) return i;
  }
  return std::nullopt;
}

/// \brief Emplaces the default alternative at \p index into \p variant and
/// calls fn(alternative&). False (variant untouched) when \p index is out
/// of range.
template <typename Variant, typename Fn>
bool EmplaceAlternative(Variant& variant, size_t index, Fn&& fn) {
  return [&]<size_t... I>(std::index_sequence<I...>) {
    return ((index == I && (fn(variant.template emplace<I>()), true)) || ...);
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
}

}  // namespace wire
}  // namespace api
}  // namespace wot

#endif  // WOT_API_WIRE_SCHEMA_H_
