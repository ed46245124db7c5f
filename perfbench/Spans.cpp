//===- Spans.cpp - The benchmark's own span recorder ----------------------===//
//
// Part of the ANEK benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <utility>

using namespace perfbench;

int SpanLog::open(const char *Name, int Parent, unsigned Op) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Start = now();
  S.Parent = Parent;
  S.Op = Op;
  S.Thread = std::this_thread::get_id();
  std::lock_guard<std::mutex> Lock(Mutex);
  Recorded.push_back(std::move(S));
  return static_cast<int>(Recorded.size() - 1);
}

void SpanLog::close(int Id) {
  if (Id < 0)
    return;
  const double End = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  Recorded[Id].End = End;
}

int SpanLog::add(const char *Name, double Start, double End, int Parent,
                 unsigned Op) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  S.Op = Op;
  S.Thread = std::this_thread::get_id();
  std::lock_guard<std::mutex> Lock(Mutex);
  Recorded.push_back(std::move(S));
  return static_cast<int>(Recorded.size() - 1);
}

void SpanLog::adopt(int Id, int Parent, unsigned Op) {
  if (Id < 0)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  Recorded[Id].Parent = Parent;
  Recorded[Id].Op = Op;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Recorded;
}

std::map<std::string, double>
SpanLog::selfSecondsByLayer(const std::string &OpRoot) const {
  std::vector<Span> All = spans();
  std::vector<std::vector<std::pair<double, double>>> Children(All.size());
  for (const Span &S : All)
    if (S.Parent >= 0 && S.End >= 0.0)
      Children[S.Parent].emplace_back(S.Start, S.End);

  // Layer self seconds per operation root, and outside any operation.
  std::map<int, std::map<std::string, double>> PerOp;
  std::map<std::string, double> Once;
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    if (S.End < 0.0)
      continue;
    // Children of one span may overlap (concurrent requests under one
    // batch), so subtract the union of their intervals, clipped to S.
    std::vector<std::pair<double, double>> &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    double Covered = 0.0, RunStart = 0.0, RunEnd = -1.0;
    for (auto [Lo, Hi] : Kids) {
      Lo = std::max(Lo, S.Start);
      Hi = std::min(Hi, S.End);
      if (Hi <= Lo)
        continue;
      if (Lo > RunEnd) {
        if (RunEnd > RunStart)
          Covered += RunEnd - RunStart;
        RunStart = Lo;
        RunEnd = Hi;
      } else {
        RunEnd = std::max(RunEnd, Hi);
      }
    }
    if (RunEnd > RunStart)
      Covered += RunEnd - RunStart;
    int Root = static_cast<int>(I);
    while (All[Root].Parent >= 0)
      Root = All[Root].Parent;
    const double Self = std::max(0.0, S.End - S.Start - Covered);
    const std::string Layer = S.Name.substr(0, S.Name.find('.'));
    if (All[Root].Name == OpRoot)
      PerOp[Root][Layer] += Self;
    else
      Once[Layer] += Self;
  }

  std::set<std::string> Layers;
  for (const auto &[Root, ByLayer] : PerOp)
    for (const auto &[Layer, Self] : ByLayer)
      Layers.insert(Layer);
  std::map<std::string, double> Result = Once;
  for (const std::string &Layer : Layers) {
    std::vector<double> Values;
    for (const auto &[Root, ByLayer] : PerOp) {
      auto It = ByLayer.find(Layer);
      Values.push_back(It == ByLayer.end() ? 0.0 : It->second);
    }
    std::sort(Values.begin(), Values.end());
    const size_t N = Values.size();
    Result[Layer] += N % 2 ? Values[N / 2]
                           : (Values[N / 2 - 1] + Values[N / 2]) / 2.0;
  }
  return Result;
}

bool SpanLog::write(const std::string &Path, std::string &Error) const {
  std::vector<Span> All = spans();
  std::map<std::thread::id, unsigned> ThreadIds;
  std::ofstream Out(Path);
  Out << "{\"schema\": \"anek-perfbench-spans-v1\", \"spans\": [\n";
  char Buf[256];
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    auto It = ThreadIds.emplace(S.Thread, ThreadIds.size()).first;
    std::snprintf(Buf, sizeof Buf,
                  "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %d, \"op\": %u, "
                  "\"thread\": %u}%s\n",
                  I, S.Name.c_str(), S.Start, S.End, S.Parent, S.Op,
                  It->second, I + 1 == All.size() ? "" : ",");
    Out << Buf;
  }
  Out << "]}\n";
  Out.close();
  if (!Out) {
    Error = "cannot write span file '" + Path + "'";
    return false;
  }
  return true;
}
