"""Start a float session: import e6kit and apply each of the 135 labels once.

float-stream times this script in a fresh interpreter as its set-up cost.
"""

import inputs


def main() -> None:
    from e6kit import group, jordan
    identity = jordan.from_coords([1.0, 1.0, 1.0] + [0.0] * 24)
    for label in inputs.label_texts():
        group.apply(group.parse_label(label), 0.0, identity)


if __name__ == "__main__":
    main()
