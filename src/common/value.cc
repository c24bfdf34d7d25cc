#include "common/value.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace grfusion {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBoolean:
      return "BOOLEAN";
    case ValueType::kBigInt:
      return "BIGINT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kVarchar:
      return "VARCHAR";
  }
  return "UNKNOWN";
}

double Value::AsNumeric() const {
  switch (type_) {
    case ValueType::kBoolean:
      return AsBoolean() ? 1.0 : 0.0;
    case ValueType::kBigInt:
      return static_cast<double>(AsBigInt());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return 0.0;
  }
}

namespace {

bool IsNumeric(ValueType t) {
  return t == ValueType::kBigInt || t == ValueType::kDouble;
}

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

}  // namespace

StatusOr<int> Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    return Status::InvalidArgument("cannot compare NULL values");
  }
  if (type_ == other.type_) {
    switch (type_) {
      case ValueType::kBoolean:
        return static_cast<int>(AsBoolean()) - static_cast<int>(other.AsBoolean());
      case ValueType::kBigInt: {
        int64_t a = AsBigInt(), b = other.AsBigInt();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      case ValueType::kDouble:
        return Sign(AsDouble() - other.AsDouble());
      case ValueType::kVarchar: {
        int c = AsVarchar().compare(other.AsVarchar());
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
      default:
        break;
    }
  }
  if (IsNumeric(type_) && IsNumeric(other.type_)) {
    return Sign(AsNumeric() - other.AsNumeric());
  }
  return Status::InvalidArgument(
      std::string("incomparable types ") + ValueTypeToString(type_) + " and " +
      ValueTypeToString(other.type_));
}

bool Value::SqlEquals(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  auto cmp = Compare(other);
  return cmp.ok() && *cmp == 0;
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(type_);
  size_t h = 0;
  switch (type_) {
    case ValueType::kNull:
      h = 0x9e3779b97f4a7c15ULL;
      break;
    case ValueType::kBoolean:
      h = std::hash<bool>{}(AsBoolean());
      break;
    case ValueType::kBigInt:
      h = std::hash<int64_t>{}(AsBigInt());
      break;
    case ValueType::kDouble: {
      // Numeric types hash the same when they compare equal, so a hash join
      // on a BIGINT/DOUBLE mix still works: integral doubles (-0.0 too) hash
      // as int64. Every NaN hashes alike, as KeyEquals groups them.
      const double d = AsDouble();
      if (std::isnan(d)) {
        h = 0x7ff8000000000000ULL;
      } else if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
        h = std::hash<int64_t>{}(static_cast<int64_t>(d));
        seed = static_cast<size_t>(ValueType::kBigInt);
      } else {
        h = std::hash<double>{}(d);
      }
      break;
    }
    case ValueType::kVarchar:
      h = std::hash<std::string>{}(AsVarchar());
      break;
  }
  return h ^ (seed + 0x9e3779b9 + (h << 6) + (h >> 2));
}

StatusOr<Value> Value::CastTo(ValueType target) const {
  if (type_ == target) return *this;
  if (is_null()) return Value::Null();
  switch (target) {
    case ValueType::kBigInt:
      switch (type_) {
        case ValueType::kBoolean:
          return Value::BigInt(AsBoolean() ? 1 : 0);
        case ValueType::kDouble:
          return Value::BigInt(static_cast<int64_t>(AsDouble()));
        case ValueType::kVarchar: {
          errno = 0;
          char* end = nullptr;
          long long v = std::strtoll(AsVarchar().c_str(), &end, 10);
          if (errno != 0 || end == AsVarchar().c_str() || *end != '\0') {
            return Status::InvalidArgument("cannot cast '" + AsVarchar() +
                                           "' to BIGINT");
          }
          return Value::BigInt(v);
        }
        default:
          break;
      }
      break;
    case ValueType::kDouble:
      switch (type_) {
        case ValueType::kBoolean:
          return Value::Double(AsBoolean() ? 1.0 : 0.0);
        case ValueType::kBigInt:
          return Value::Double(static_cast<double>(AsBigInt()));
        case ValueType::kVarchar: {
          errno = 0;
          char* end = nullptr;
          double v = std::strtod(AsVarchar().c_str(), &end);
          if (errno != 0 || end == AsVarchar().c_str() || *end != '\0') {
            return Status::InvalidArgument("cannot cast '" + AsVarchar() +
                                           "' to DOUBLE");
          }
          return Value::Double(v);
        }
        default:
          break;
      }
      break;
    case ValueType::kVarchar:
      return Value::Varchar(ToString());
    case ValueType::kBoolean:
      if (type_ == ValueType::kBigInt) return Value::Boolean(AsBigInt() != 0);
      break;
    default:
      break;
  }
  return Status::InvalidArgument(std::string("unsupported cast from ") +
                                 ValueTypeToString(type_) + " to " +
                                 ValueTypeToString(target));
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBoolean:
      return AsBoolean() ? "true" : "false";
    case ValueType::kBigInt:
      return std::to_string(AsBigInt());
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      return buf;
    }
    case ValueType::kVarchar:
      return AsVarchar();
  }
  return "?";
}

bool KeyEquals(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const bool both_nan = a[i].type() == ValueType::kDouble &&
                          b[i].type() == ValueType::kDouble &&
                          std::isnan(a[i].AsDouble()) &&
                          std::isnan(b[i].AsDouble());
    if (!both_nan && !(a[i] == b[i])) return false;
  }
  return true;
}

size_t HashValues(const std::vector<Value>& values) {
  size_t seed = values.size();
  for (const Value& v : values) {
    seed ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4);
  }
  return seed;
}

}  // namespace grfusion
