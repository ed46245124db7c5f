//===- StringUtils.cpp - Common string predicates and splitters ----------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

using namespace anek;

bool anek::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

bool anek::endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

std::string anek::trim(const std::string &S) {
  size_t Begin = 0, End = S.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string> anek::splitAndTrim(const std::string &S, char Sep) {
  std::vector<std::string> Result;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string::npos)
      Pos = S.size();
    std::string Piece = trim(S.substr(Start, Pos - Start));
    if (!Piece.empty())
      Result.push_back(std::move(Piece));
    Start = Pos + 1;
  }
  return Result;
}

std::string anek::join(const std::vector<std::string> &Parts,
                       const std::string &Sep) {
  std::string Result;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

uint64_t anek::stableHash64(const std::string &S) {
  uint64_t Hash = 0xCBF29CE484222325ULL; // FNV offset basis.
  for (unsigned char C : S) {
    Hash ^= C;
    Hash *= 0x100000001B3ULL; // FNV prime.
  }
  return Hash;
}

bool anek::parseUnsigned(const std::string &Text, unsigned &Out) {
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    Value = Value * 10 + static_cast<uint64_t>(C - '0');
    if (Value > std::numeric_limits<unsigned>::max())
      return false;
  }
  Out = static_cast<unsigned>(Value);
  return true;
}

bool anek::parseFinite(const std::string &Text, double &Out) {
  if (Text.empty() || std::isspace(static_cast<unsigned char>(Text[0])))
    return false;
  char *End = nullptr;
  double Value = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() || !std::isfinite(Value))
    return false;
  Out = Value;
  return true;
}
