"""Oracle module: its presence puts this package in float-sum scope."""


def total_weight_reference(weights):
    acc = 0.0
    for w in weights:
        acc += w
    return acc
