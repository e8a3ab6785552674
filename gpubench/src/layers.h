/**
 * @file
 * The traced run's per-layer breakdown: the benchmark calls each
 * layer's public functions itself, for the cells the served run
 * computed or read, inside spans.
 */
#ifndef GPUBENCH_LAYERS_H
#define GPUBENCH_LAYERS_H

#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace gpubench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What the served (untraced) run left for the traced run. */
struct ServedRun
{
    const Plan &plan;
    Deployment &dep;
    const Phase &phase;
    /** Single-thread in-process execute time of each request, s. */
    std::map<size_t, double> coldExecSeconds;
};

/**
 * Run the traced layer pass over @p run's requests, recording spans
 * into @p tracer, and append every per-layer metric to @p out.
 * Returns the number of cells whose traced recomputation differs
 * from the served cell (0 on a correct tree).
 */
size_t tracedLayers(const ServedRun &run, Tracer &tracer,
                    std::vector<Metric> &out);

} // namespace gpubench

#endif // GPUBENCH_LAYERS_H
