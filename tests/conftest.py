import pytest

from vedicfft import (
    FftConfig,
    build_array4x4,
    build_butterfly2,
    build_fft4,
    build_reconfigurable_fft,
    build_vedic2x2,
    build_vedic4x4,
)


@pytest.fixture(scope="session")
def vedic2x2():
    return build_vedic2x2()


@pytest.fixture(scope="session")
def vedic4x4():
    return build_vedic4x4()


@pytest.fixture(scope="session")
def array4x4():
    return build_array4x4()


@pytest.fixture(scope="session")
def butterfly2():
    return build_butterfly2(4)


@pytest.fixture(scope="session")
def fft4_exact():
    return build_fft4(FftConfig())


@pytest.fixture(scope="session")
def fft4_q3():
    return build_fft4(FftConfig(4, "quantized", 3, 4))


@pytest.fixture(scope="session")
def recon_exact():
    return build_reconfigurable_fft(FftConfig())


@pytest.fixture(scope="session")
def recon_q3():
    return build_reconfigurable_fft(FftConfig(4, "quantized", 3, 4))


_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collector for the acceptance gate's one-line verdicts."""
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance gate")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
