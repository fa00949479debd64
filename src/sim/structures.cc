#include "sim/structures.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ramp {
namespace sim {

namespace {

struct StructureDesc
{
    std::string_view name;
    double area_mm2;
};

// Areas follow the relative proportions of the MIPS R10000 die photo
// (exec units and caches dominate), scaled so the core totals the
// paper's 20.25 mm^2 at 65 nm. The values tile the 4.5 mm x 4.5 mm
// die exactly in four rows (see thermal/floorplan.cc):
//   row 0 (h=1.0): L1I 1.8 | Bpred 1.4 | FrontEnd 1.3
//   row 1 (h=1.3): IntReg 1.2 | IntALU 2.4 | IWin 2.25
//   row 2 (h=1.3): FPReg 1.2 | FPU 3.6 | LSQ 1.05
//   row 3 (h=0.9): L1D 4.05
constexpr std::array<StructureDesc, num_structures> descs = {{
    {"IntALU", 2.40},
    {"FPU", 3.60},
    {"IntReg", 1.20},
    {"FPReg", 1.20},
    {"Bpred", 1.40},
    {"IWin", 2.25},
    {"LSQ", 1.05},
    {"L1D", 4.05},
    {"L1I", 1.80},
    {"FrontEnd", 1.30},
}};

} // namespace

std::string_view
structureName(StructureId id)
{
    const auto i = structureIndex(id);
    if (i >= num_structures)
        util::panic("structureName: bad structure id");
    return descs[i].name;
}

double
structureArea(StructureId id)
{
    const auto i = structureIndex(id);
    if (i >= num_structures)
        util::panic("structureArea: bad structure id");
    return descs[i].area_mm2;
}

double
totalCoreArea()
{
    double total = 0.0;
    for (const auto &d : descs)
        total += d.area_mm2;
    return total;
}

double
maxOf(const PerStructure<double> &v)
{
    double m = v[0];
    for (double x : v)
        m = std::max(m, x);
    return m;
}

double
areaWeightedMean(const PerStructure<double> &v)
{
    double sum = 0.0;
    double area = 0.0;
    for (auto id : allStructures()) {
        const double a = structureArea(id);
        sum += v[structureIndex(id)] * a;
        area += a;
    }
    return sum / area;
}

} // namespace sim
} // namespace ramp
