//===- Manifest.cpp - Batch request manifest parsing ------------------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "serve/Manifest.h"

#include "corpus/ExampleSources.h"
#include "support/Format.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

using namespace anek;
using namespace anek::serve;

namespace {

/// Splits a manifest line on whitespace runs.
std::vector<std::string> tokenize(const std::string &Line) {
  std::vector<std::string> Tokens;
  std::istringstream In(Line);
  std::string Tok;
  while (In >> Tok)
    Tokens.push_back(Tok);
  return Tokens;
}

/// Parses a non-negative integer with an optional k/m/g binary suffix.
bool parseByteCount(const std::string &Text, long long &Out) {
  if (Text.empty())
    return false;
  size_t End = 0;
  long long Value = 0;
  try {
    Value = std::stoll(Text, &End);
  } catch (...) {
    return false;
  }
  if (Value < 0)
    return false;
  long long Scale = 1;
  if (End + 1 == Text.size()) {
    switch (std::tolower(static_cast<unsigned char>(Text[End]))) {
    case 'k':
      Scale = 1LL << 10;
      break;
    case 'm':
      Scale = 1LL << 20;
      break;
    case 'g':
      Scale = 1LL << 30;
      break;
    default:
      return false;
    }
  } else if (End != Text.size()) {
    return false;
  }
  if (Value > std::numeric_limits<long long>::max() / Scale)
    return false;
  Out = Value * Scale;
  return true;
}

Status lineError(unsigned LineNo, const std::string &Detail) {
  return Status::error(ErrorCode::InvalidArgument,
                       formatStr("manifest line %u: %s", LineNo,
                                 Detail.c_str()));
}

} // namespace

Expected<std::vector<BatchRequest>>
anek::serve::parseManifest(const std::string &Text) {
  std::vector<BatchRequest> Requests;
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::vector<std::string> Tokens = tokenize(Line);
    if (Tokens.empty() || Tokens.front()[0] == '#')
      continue;

    BatchRequest R;
    R.Index = static_cast<unsigned>(Requests.size());
    R.Input = Tokens.front();
    for (size_t I = 1; I < Tokens.size(); ++I) {
      const std::string &Tok = Tokens[I];
      size_t Eq = Tok.find('=');
      if (Eq == std::string::npos || Eq == 0)
        return lineError(LineNo, "expected key=value, got '" + Tok + "'");
      std::string Key = Tok.substr(0, Eq);
      std::string Value = Tok.substr(Eq + 1);
      if (Key == "id") {
        if (Value.empty())
          return lineError(LineNo, "empty id");
        R.Id = Value;
      } else if (Key == "jobs") {
        if (!parseUnsigned(Value, R.Jobs))
          return lineError(LineNo, "bad jobs value '" + Value + "'");
      } else if (Key == "deadline") {
        if (!parseFinite(Value, R.DeadlineSeconds))
          return lineError(LineNo, "bad deadline value '" + Value + "'");
        if (R.DeadlineSeconds < 0.0)
          return lineError(LineNo, "negative deadline");
      } else if (Key == "mem") {
        if (!parseByteCount(Value, R.MemBudgetBytes))
          return lineError(LineNo, "bad mem value '" + Value + "'");
      } else if (Key == "fault") {
        if (Value.empty())
          return lineError(LineNo, "empty fault spec");
        R.FaultSpec = Value;
      } else if (Key == "cache") {
        if (Value.empty())
          return lineError(LineNo, "empty cache directory");
        R.CacheDir = Value;
      } else {
        return lineError(LineNo, "unknown key '" + Key + "'");
      }
    }
    if (R.Id.empty())
      R.Id = formatStr("req%u", R.Index);
    Requests.push_back(std::move(R));
  }
  return Requests;
}

bool anek::serve::loadRequestSource(const BatchRequest &R, std::string &Out,
                                    std::string &Error) {
  if (!R.Source.empty()) {
    Out = R.Source;
    return true;
  }
  constexpr const char Prefix[] = "example:";
  if (R.Input.rfind(Prefix, 0) == 0) {
    std::string Name = R.Input.substr(sizeof(Prefix) - 1);
    // Mirror the driver's --example mapping (tools/anek.cpp loadSource).
    if (Name == "spreadsheet") {
      Out = iteratorApiSource() + spreadsheetSource();
      return true;
    }
    if (Name == "file") {
      Out = fileProtocolSource();
      return true;
    }
    if (Name == "field") {
      Out = fieldExampleSource();
      return true;
    }
    Error = "unknown example '" + Name + "'";
    return false;
  }
  std::ifstream In(R.Input);
  if (!In) {
    Error = "cannot open '" + R.Input + "'";
    return false;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}
