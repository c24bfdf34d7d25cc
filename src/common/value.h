#ifndef GRFUSION_COMMON_VALUE_H_
#define GRFUSION_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace grfusion {

/// Column data types supported by the engine. The set matches what the
/// GRFusion paper's workloads need (ids, numeric weights/costs, labels,
/// booleans, dates stored as strings or integers).
enum class ValueType : uint8_t {
  kNull = 0,
  kBoolean,
  kBigInt,   ///< 64-bit signed integer.
  kDouble,   ///< 64-bit IEEE float.
  kVarchar,  ///< Variable-length string.
};

/// Returns a stable name for a value type ("BIGINT").
const char* ValueTypeToString(ValueType type);

/// A single SQL value: a tagged union over the supported column types.
/// Values are small (strings use std::string's SSO for short payloads) and
/// freely copyable; the executor moves them where it matters.
class Value {
 public:
  /// Constructs a SQL NULL.
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value Boolean(bool v) {
    Value out;
    out.type_ = ValueType::kBoolean;
    out.data_ = v;
    return out;
  }
  static Value BigInt(int64_t v) {
    Value out;
    out.type_ = ValueType::kBigInt;
    out.data_ = v;
    return out;
  }
  static Value Double(double v) {
    Value out;
    out.type_ = ValueType::kDouble;
    out.data_ = v;
    return out;
  }
  static Value Varchar(std::string v) {
    Value out;
    out.type_ = ValueType::kVarchar;
    out.data_ = std::move(v);
    return out;
  }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  /// Typed accessors. Calling the wrong accessor for the stored type is a
  /// programming error (checked by assert in debug builds).
  bool AsBoolean() const { return std::get<bool>(data_); }
  int64_t AsBigInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsVarchar() const { return std::get<std::string>(data_); }

  /// Numeric view: BIGINT and DOUBLE widen to double, BOOLEAN to 0/1.
  /// Only valid for non-null numeric/boolean values.
  double AsNumeric() const;

  /// SQL three-valued comparison. Returns kNull Value semantics via status:
  /// comparing with NULL yields `std::nullopt`-like behaviour — callers use
  /// CompareResult. Orders BIGINT/DOUBLE numerically (cross-type allowed),
  /// VARCHAR lexicographically, BOOLEAN false < true.
  /// Returns <0, 0, >0; error if the types are incomparable or either is NULL.
  StatusOr<int> Compare(const Value& other) const;

  /// SQL equality that treats NULL as "unknown": NULL == anything is false.
  /// Distinct from operator== below, which is structural.
  bool SqlEquals(const Value& other) const;

  /// Structural equality (NULL equals NULL). Used by tests and hash tables.
  bool operator==(const Value& other) const {
    return type_ == other.type_ && data_ == other.data_;
  }

  /// Hash compatible with operator== (structural) and KeyEquals. Used by
  /// hash joins, group-by, and hash indexes.
  size_t Hash() const;

  /// Coerces this value to `target` if a lossless/standard SQL cast exists
  /// (BIGINT<->DOUBLE, anything -> VARCHAR, VARCHAR -> numeric when parseable).
  StatusOr<Value> CastTo(ValueType target) const;

  /// Display form: NULL -> "NULL", strings unquoted, doubles with %g.
  std::string ToString() const;

 private:
  ValueType type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Hash over a vector of values (composite keys), consistent with KeyEquals.
size_t HashValues(const std::vector<Value>& values);

/// Key equality for GROUP BY, DISTINCT and hash-join buckets: structural
/// (types must match, NULL equals NULL, -0.0 equals 0.0), except that NaN
/// equals NaN, so every SQL-equal value lands in one group.
bool KeyEquals(const std::vector<Value>& a, const std::vector<Value>& b);

/// Hash and equality functors for unordered containers keyed by a
/// std::vector<Value>.
struct ValuesHash {
  size_t operator()(const std::vector<Value>& v) const {
    return HashValues(v);
  }
};
struct ValuesEqual {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    return KeyEquals(a, b);
  }
};

}  // namespace grfusion

#endif  // GRFUSION_COMMON_VALUE_H_
