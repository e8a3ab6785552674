#include "trace.h"

#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace gpubench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Tracer(bool enabled, Clock::time_point epoch)
    : enabled_(enabled), epoch_(epoch)
{
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, uint64_t request)
    : tracer_(tracer), name_(name), request_(request)
{
    if (!tracer_.enabled_)
        return;
    id_ = ++tracer_.nextId_;
    parent_ = tracer_.open_;
    tracer_.open_ = id_;
    start_ = tracer_.now();
}

Tracer::Scope::~Scope()
{
    if (!tracer_.enabled_)
        return;
    tracer_.open_ = parent_;
    tracer_.spans_.push_back(
        {name_, id_, parent_, request_, start_, tracer_.now()});
}

void
Tracer::add(const std::string &name, uint64_t request, double start,
            double end, int lane)
{
    if (enabled_)
        spans_.push_back(
            {name, ++nextId_, 0, request, start, end, lane});
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

size_t
Tracer::count(const std::string &name) const
{
    size_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name ? 1 : 0;
    return n;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    // Children of one parent never overlap (the recorder is
    // sequential), so summing their durations gives the covered part.
    std::unordered_map<uint64_t, double> childTime;
    for (const Span &s : spans_)
        if (s.parent != 0)
            childTime[s.parent] += s.end - s.start;
    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        auto it = childTime.find(s.id);
        self[s.name] += (s.end - s.start) -
                        (it == childTime.end() ? 0.0 : it->second);
    }
    return self;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"%s\", \"cat\": \"gpubench\", "
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": "
                      "{\"id\": %llu, \"parent\": %llu, "
                      "\"request\": %llu}}",
                      i ? "," : "", s.name.c_str(), s.lane,
                      s.start * 1e6,
                      (s.end - s.start) * 1e6,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.request));
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace gpubench
