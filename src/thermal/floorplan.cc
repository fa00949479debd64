#include "thermal/floorplan.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace ramp {
namespace thermal {

using sim::StructureId;
using sim::structureIndex;

Floorplan::Floorplan()
{
    // Four-row tiling of the 4.5 mm square die; widths chosen so each
    // block's area matches sim::structureArea exactly.
    auto put = [&](StructureId id, double x, double y, double w,
                   double h) {
        blocks_[structureIndex(id)] = Block{id, x, y, w, h};
    };

    // Row 0 (front end + predictor + I-cache), height 1.0.
    put(StructureId::L1I, 0.0, 0.0, 1.8, 1.0);
    put(StructureId::Bpred, 1.8, 0.0, 1.4, 1.0);
    put(StructureId::FrontEnd, 3.2, 0.0, 1.3, 1.0);

    // Row 1 (integer cluster), height 1.3.
    put(StructureId::IntReg, 0.0, 1.0, 1.2 / 1.3, 1.3);
    put(StructureId::IntAlu, 1.2 / 1.3, 1.0, 2.4 / 1.3, 1.3);
    put(StructureId::IWin, (1.2 + 2.4) / 1.3, 1.0, 2.25 / 1.3, 1.3);

    // Row 2 (FP cluster + LSQ), height 1.3.
    put(StructureId::FpReg, 0.0, 2.3, 1.2 / 1.3, 1.3);
    put(StructureId::Fpu, 1.2 / 1.3, 2.3, 3.6 / 1.3, 1.3);
    put(StructureId::Lsq, (1.2 + 3.6) / 1.3, 2.3, 1.05 / 1.3, 1.3);

    // Row 3 (data cache spans the die), height 0.9.
    put(StructureId::L1D, 0.0, 3.6, 4.5, 0.9);

    // Consistency: placement areas must match the canonical areas.
    for (const auto &b : blocks_) {
        const double want = sim::structureArea(b.id);
        if (std::fabs(b.area() - want) > 1e-9)
            util::panic(util::cat("floorplan area mismatch for ",
                                  sim::structureName(b.id), ": ",
                                  b.area(), " vs ", want));
    }
}

const Block &
Floorplan::block(StructureId id) const
{
    return blocks_[structureIndex(id)];
}

namespace {

/** Overlap length of 1-D segments [a0,a1] and [b0,b1]. */
double
overlap(double a0, double a1, double b0, double b1)
{
    return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

} // namespace

double
sharedBorder(const Block &p, const Block &q)
{
    const double eps = 1e-9;
    // Vertical borders (p right edge on q left edge or vice versa).
    if (std::fabs((p.x + p.w) - q.x) < eps ||
        std::fabs((q.x + q.w) - p.x) < eps)
        return overlap(p.y, p.y + p.h, q.y, q.y + q.h);
    // Horizontal borders.
    if (std::fabs((p.y + p.h) - q.y) < eps ||
        std::fabs((q.y + q.h) - p.y) < eps)
        return overlap(p.x, p.x + p.w, q.x, q.x + q.w);
    return 0.0;
}

double
centerDistance(const Block &p, const Block &q)
{
    const double dx = p.cx() - q.cx();
    const double dy = p.cy() - q.cy();
    return std::sqrt(dx * dx + dy * dy);
}

double
Floorplan::sharedBorder(StructureId a, StructureId b) const
{
    return a == b ? 0.0 : thermal::sharedBorder(block(a), block(b));
}

double
Floorplan::centerDistance(StructureId a, StructureId b) const
{
    return thermal::centerDistance(block(a), block(b));
}

} // namespace thermal
} // namespace ramp
