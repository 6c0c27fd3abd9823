from setuptools import setup

setup(
    extras_require={
        # Vector cohorts: same-program software tenants advanced by one
        # NumPy dispatch; everything else runs on the standard library
        # alone, and without it tenants keep their scalar engines.
        "batch": ["numpy"],
    },
)
