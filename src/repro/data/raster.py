"""Tiny raster-drawing helpers for the synthetic image datasets.

The evaluation datasets (MNIST, KMNIST, FMNIST, CIFAR-2) cannot be
downloaded in this offline environment, so :mod:`repro.data.datasets`
synthesizes look-alikes.  The generators draw class-distinctive glyphs and
shapes onto small float canvases using the primitives in this module:
lines, ellipses, filled rectangles and soft blobs, all vectorized numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["Canvas"]


@lru_cache(maxsize=None)
def _grid(height, width):
    """Read-only float ``(yy, xx)`` pixel coordinates, one pair per size."""
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    yy.setflags(write=False)
    xx.setflags(write=False)
    return yy, xx


class Canvas:
    """A ``(height, width)`` float image in ``[0, 1]`` with draw primitives.

    >>> c = Canvas(4, 4).rect(1, 1, 2, 2)
    >>> c.binarize(0.5).reshape(4, 4).sum(axis=1).tolist()
    [0, 2, 2, 0]
    """

    def __init__(self, height, width):
        self.height = int(height)
        self.width = int(width)
        self.pixels = np.zeros((self.height, self.width), dtype=np.float64)
        self._yy, self._xx = _grid(self.height, self.width)

    def _accumulate(self, mask, intensity):
        np.maximum(self.pixels, mask * intensity, out=self.pixels)

    # ------------------------------------------------------------------
    def line(self, y0, x0, y1, x1, thickness=1.2, intensity=1.0):
        """Draw an anti-aliased line segment."""
        dy, dx = y1 - y0, x1 - x0
        length_sq = dy * dy + dx * dx
        if length_sq == 0:
            dist = np.hypot(self._yy - y0, self._xx - x0)
        else:
            # Distance from each pixel to the segment.
            t = ((self._yy - y0) * dy + (self._xx - x0) * dx) / length_sq
            t = np.clip(t, 0.0, 1.0)
            py = y0 + t * dy
            px = x0 + t * dx
            dist = np.hypot(self._yy - py, self._xx - px)
        mask = np.clip(1.0 - dist / max(thickness, 1e-6), 0.0, 1.0)
        self._accumulate(mask, intensity)
        return self

    def ellipse(self, cy, cx, ry, rx, thickness=1.2, intensity=1.0, filled=False):
        """Draw an ellipse outline (or filled ellipse)."""
        ry = max(ry, 1e-6)
        rx = max(rx, 1e-6)
        r = np.hypot((self._yy - cy) / ry, (self._xx - cx) / rx)
        if filled:
            mask = np.clip((1.0 - r) * max(ry, rx), 0.0, 1.0)
        else:
            band = np.abs(r - 1.0) * min(ry, rx)
            mask = np.clip(1.0 - band / max(thickness, 1e-6), 0.0, 1.0)
        self._accumulate(mask, intensity)
        return self

    def rect(self, y0, x0, y1, x1, intensity=1.0):
        """Fill an axis-aligned rectangle (inclusive bounds, clipped)."""
        y0, y1 = sorted((int(round(y0)), int(round(y1))))
        x0, x1 = sorted((int(round(x0)), int(round(x1))))
        y0 = max(y0, 0)
        x0 = max(x0, 0)
        y1 = min(y1, self.height - 1)
        x1 = min(x1, self.width - 1)
        if y1 >= y0 and x1 >= x0:
            self.pixels[y0 : y1 + 1, x0 : x1 + 1] = np.maximum(
                self.pixels[y0 : y1 + 1, x0 : x1 + 1], intensity
            )
        return self

    def blob(self, cy, cx, radius, intensity=1.0):
        """Draw a soft Gaussian blob."""
        radius = max(radius, 1e-6)
        dist_sq = (self._yy - cy) ** 2 + (self._xx - cx) ** 2
        mask = np.exp(-dist_sq / (2.0 * radius * radius))
        self._accumulate(mask, intensity)
        return self

    # ------------------------------------------------------------------
    def shifted(self, dy, dx):
        """Return a copy translated by integer offsets, zero-filled."""
        out = Canvas(self.height, self.width)
        src = self.pixels
        dy, dx = int(dy), int(dx)
        ys0, ys1 = max(0, dy), min(self.height, self.height + dy)
        xs0, xs1 = max(0, dx), min(self.width, self.width + dx)
        yt0, yt1 = max(0, -dy), min(self.height, self.height - dy)
        xt0, xt1 = max(0, -dx), min(self.width, self.width - dx)
        out.pixels[ys0:ys1, xs0:xs1] = src[yt0:yt1, xt0:xt1]
        return out

    def with_noise(self, rng, amount=0.1):
        """Return a copy with additive uniform noise, clipped to [0, 1]."""
        out = Canvas(self.height, self.width)
        noise = rng.uniform(-amount, amount, size=self.pixels.shape)
        out.pixels = np.clip(self.pixels + noise, 0.0, 1.0)
        return out

    def binarize(self, threshold=0.5):
        """Threshold into a flat uint8 bit vector."""
        return (self.pixels > threshold).astype(np.uint8).ravel()
