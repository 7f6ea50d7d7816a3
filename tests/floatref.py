"""numpy references for encloop's float code, which runs on plain float rows:
`floats` turns an exact matrix into an array, and `SevenProductLoop` is the
unquantized reference loop in the form of the plant and controller
equations, seven numpy products a step, against which `loop.IdealLoop`'s
one closed-loop map is checked."""

import numpy as np


def floats(m) -> np.ndarray:
    """The `RationalMatrix` m as a float array of its shape."""
    return np.array(m.float_rows(), dtype=float).reshape(m.shape)


class SevenProductLoop:
    """The pre-given controller closed with its own plant copy on the
    constant reference, as y = C x_p, u = H x + J y + S r,
    x <- F x + G y + R r and x_p <- A x_p + B u."""

    def __init__(self, plant, ctrl, x_p0, reference):
        self.A, self.B, self.C = (floats(m) for m in (plant.A, plant.B, plant.C))
        self.F, self.G, self.H, self.J = (floats(m) for m in (ctrl.F, ctrl.G, ctrl.H, ctrl.J))
        self.x_p = np.array([float(x) for x in x_p0], dtype=float)
        self.x = floats(ctrl.x0).ravel()
        r = np.array([float(x) for x in reference.data], dtype=float)
        self.Sr, self.Rr = floats(ctrl.S) @ r, floats(ctrl.R_ref) @ r

    def step(self) -> tuple:
        y = self.C @ self.x_p
        u = self.H @ self.x + self.J @ y + self.Sr
        x_next = self.F @ self.x + self.G @ y + self.Rr
        self.x_p = self.A @ self.x_p + self.B @ u
        self.x = x_next
        return tuple(u.tolist())
