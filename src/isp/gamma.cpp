#include "isp/gamma.hpp"

#include <cmath>

#include "common/error.hpp"

namespace rpx {

GammaLut::GammaLut(double gamma) : gamma_(gamma)
{
    if (gamma <= 0.0)
        throwInvalid("gamma must be positive, got ", gamma);
    for (int i = 0; i < 256; ++i) {
        const double norm = i / 255.0;
        lut_[static_cast<size_t>(i)] =
            clampToU8(255.0 * std::pow(norm, gamma));
    }
}

void
GammaLut::apply(Image &img) const
{
    for (u8 &v : img.data())
        v = lut_[v];
}

} // namespace rpx
