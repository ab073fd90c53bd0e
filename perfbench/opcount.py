"""Operation counts and bytes moved for the conv and max-pool passes.

Every number here is computed from tensor shapes, not measured. Bytes are
the compulsory traffic of the operation: each input read once and each
output written once, at the tensor's item size. The im2col copies that the
implementation makes on top of that are not counted, so a faster kernel
shows up as the same bytes in less time.
"""


def conv_forward(n, c, h, w, out_c, k, ho, wo, itemsize):
    """(flops, bytes) of one Conv2d forward: matmul plus bias add."""
    flops = 2 * n * out_c * c * k * k * ho * wo + n * out_c * ho * wo
    nbytes = itemsize * (n * c * h * w + out_c * c * k * k + out_c + n * out_c * ho * wo)
    return flops, nbytes


def conv_backward(n, c, h, w, out_c, k, ho, wo, itemsize, needs_dx):
    """(flops, bytes) of one Conv2d backward.

    Weight and bias gradients are always computed; the input gradient (a
    matmul plus the scatter-add of the patches) only when needs_dx.
    """
    flops = 2 * n * out_c * c * k * k * ho * wo + n * out_c * ho * wo
    nbytes = itemsize * (n * out_c * ho * wo + n * c * h * w + out_c * c * k * k + out_c)
    if needs_dx:
        flops += 2 * n * out_c * c * k * k * ho * wo + n * c * k * k * ho * wo
        nbytes += itemsize * (out_c * c * k * k + n * c * h * w)
    return flops, nbytes


def pool_forward(n, c, h, w, k, ho, wo, itemsize):
    """(ops, bytes) of one MaxPool2d forward: k*k - 1 comparisons per output."""
    ops = n * c * ho * wo * (k * k - 1)
    nbytes = itemsize * (n * c * h * w + n * c * ho * wo)
    return ops, nbytes


def pool_backward(n, c, h, w, ho, wo, itemsize):
    """(ops, bytes) of one MaxPool2d backward: one routed add per output."""
    ops = n * c * ho * wo
    nbytes = itemsize * (n * c * ho * wo + n * c * h * w)
    return ops, nbytes
